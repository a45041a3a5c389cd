package workload

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/malware"
)

// ipDivisor scales campaign client-IP counts down from the paper's.
// Counts below 100 are kept absolute so "handful of IPs" campaigns stay
// a handful.
const ipDivisor = 40

// midTierCampaigns is the multi-week hash-campaign count feeding
// Figure 17's recurring base; it scales with the dataset.
func midTierCampaigns(totalSessions int) int { return 40 + totalSessions/2500 }

// campaign is a scheduled hash campaign ready to plan sessions. Only the
// sequential planning pass writes it, and only its cursor fields once
// planning starts; decorators, which run meanwhile, read the others.
type campaign struct {
	label      string
	hash       string
	tag        string
	category   analysis.Category
	sessions   int
	activeDays []int
	ips        []string
	pots       []int
	commands   []honeypot.CommandRecord
	uris       []string // the download URI, if any, as a slice its records share
	filePath   string   // dropped-file path, precomputed from label
	user       string
	password   string
	telnetBias float64 // fraction of sessions over telnet
	ipCursor   int     // rotating day-window into ips
	potSeq     int     // first-pass coverage cursor over pots
	// Locality indexes over pots, built for URI campaigns (Figure 16(b)).
	potsByCountry   map[string][]int
	potsByContinent map[geo.Continent][]int
}

// buildCampaigns scales the paper's archetypes (Tables 4–6), the Mirai
// cluster, and a generated mid-tier into emission-ready campaigns.
func (g *generator) buildCampaigns() []*campaign {
	sessScale := float64(g.cfg.TotalSessions) / PaperTotalSessions
	var out []*campaign

	// The Mirai cluster variants share one pinned honeypot subset
	// (the paper: "they only contact 75–77 of the honeypots").
	clusterSize := malware.MiraiClusterMax
	if clusterSize > g.cfg.NumPots {
		clusterSize = g.cfg.NumPots
	}
	cluster := g.hashPots.SampleK(g.rng, clusterSize)

	clusterLabels := make(map[string]bool)
	for _, a := range malware.MiraiClusterVariants() {
		clusterLabels[a.Label] = true
	}

	for _, a := range malware.AllArchetypes() {
		c := g.scaleArchetype(a, sessScale)
		if clusterLabels[a.Label] {
			n := a.Honeypots
			if n > len(cluster) {
				n = len(cluster)
			}
			c.pots = cluster[:n]
			if c.uris != nil {
				g.buildLocality(c) // re-index over the pinned subset
			}
		}
		g.tags[c.hash] = c.tag
		out = append(out, c)
	}

	// Mid-tier: anonymous multi-week campaigns filling Figure 17's
	// recurring hash base and Figure 22's duration mid-range.
	for i := 0; i < midTierCampaigns(g.cfg.TotalSessions); i++ {
		out = append(out, g.midTierCampaign(i))
	}
	return out
}

// scaleArchetype converts a full-scale archetype into a scaled campaign.
func (g *generator) scaleArchetype(a malware.Archetype, sessScale float64) *campaign {
	last := a.LastDay
	if last >= g.cfg.Days {
		last = g.cfg.Days - 1
	}
	first := a.FirstDay
	if first > last {
		first = last
	}
	span := last - first + 1
	active := a.ActiveDays
	if active > span {
		active = span
	}
	days := g.pickDays(first, last, active)

	sessions := int(float64(a.Sessions) * sessScale)
	if sessions < len(days) {
		sessions = len(days)
	}
	// Honeypot coverage does not scale down with session volume: a
	// campaign the paper saw at 205 honeypots still covers 205 here, so
	// it needs at least that many sessions.
	if sessions < a.Honeypots {
		sessions = a.Honeypots
	}

	ips := a.ClientIPs
	if ips > 100 {
		ips = int(float64(a.ClientIPs) / ipDivisor)
		if ips < 100 {
			ips = 100
		}
	}
	if ips > sessions {
		ips = sessions
	}
	if ips < 1 {
		ips = 1
	}

	nPots := a.Honeypots
	if nPots > g.cfg.NumPots {
		nPots = g.cfg.NumPots
	}

	pots := g.hashPots.SampleK(g.rng, nPots)
	c := &campaign{
		label:      a.Label,
		hash:       a.Hash(),
		tag:        a.Tag,
		category:   analysis.Cmd,
		sessions:   sessions,
		activeDays: days,
		ips:        g.campaignIPs(ips, pots, a.URI),
		pots:       pots,
		commands:   scriptToCommands(malware.ScriptFor(a)),
		filePath:   "/tmp/." + strings.ToLower(a.Label),
		user:       a.User,
		password:   a.Password,
	}
	if a.URI {
		c.category = analysis.CmdURI
		c.uris = []string{fmt.Sprintf("http://load.%s.example/bins/payload", strings.ToLower(a.Label))}
		g.buildLocality(c)
	}
	if a.Tag == malware.TagMirai {
		c.telnetBias = 0.6
	}
	return c
}

// midTierCampaign generates one anonymous multi-week campaign.
func (g *generator) midTierCampaign(i int) *campaign {
	hash := malware.SyntheticHash(fmt.Sprintf("mid-%d-%d", g.cfg.Seed, i))
	maxSpan := 59
	if g.cfg.Days-1 < maxSpan {
		maxSpan = maxInt(1, g.cfg.Days-1)
	}
	span := 2 + g.rng.Intn(maxSpan)
	if span > g.cfg.Days {
		span = g.cfg.Days
	}
	first := g.rng.Intn(maxInt(1, g.cfg.Days-span))
	active := 1 + g.rng.Intn(span)
	days := g.pickDays(first, first+span-1, active)
	sessions := len(days) * (1 + g.rng.Intn(2))
	nips := 2 + g.rng.Intn(58)
	if nips > sessions {
		nips = sessions
	}
	npots := 8 + g.rng.Intn(70)
	if npots > g.cfg.NumPots {
		npots = g.cfg.NumPots
	}
	if sessions < npots {
		sessions = npots
	}
	uri := g.rng.Float64() < 0.1
	pots := g.hashPots.SampleK(g.rng, npots)
	c := &campaign{
		label:      fmt.Sprintf("mid-%d", i),
		hash:       hash,
		tag:        malware.TailTag(hash),
		category:   analysis.Cmd,
		sessions:   sessions,
		activeDays: days,
		ips:        g.campaignIPs(nips, pots, uri),
		pots:       pots,
		commands:   genericTemplates[g.rng.Intn(len(genericTemplates))],
		filePath:   fmt.Sprintf("/tmp/.mid-%d", i),
	}
	if uri {
		c.category = analysis.CmdURI
		c.uris = []string{fmt.Sprintf("http://cdn-%d.example/drop", i)}
		g.buildLocality(c)
	}
	return c
}

// pickDays selects n active days in [first, last], always including the
// endpoints, mostly contiguous runs with occasional pauses ("some
// attacks are active for some time, then pause and restart").
func (g *generator) pickDays(first, last, n int) []int {
	span := last - first + 1
	if n >= span {
		days := make([]int, span)
		for i := range days {
			days[i] = first + i
		}
		return days
	}
	if n <= 0 {
		n = 1
	}
	seen := map[int]struct{}{first: {}, last: {}}
	days := []int{first}
	if last != first {
		days = append(days, last)
	}
	d := first
	for len(days) < n {
		gap := 1
		if g.rng.Float64() < 0.2 {
			gap += g.rng.Intn(10)
		}
		d += gap
		if d >= last {
			d = first + 1 + g.rng.Intn(span-1)
		}
		if _, dup := seen[d]; dup {
			continue
		}
		seen[d] = struct{}{}
		days = append(days, d)
	}
	sortInts(days)
	return days
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// campaignIPs draws n client IPs from the global country mix. For URI
// campaigns (Figure 16(b): CMD+URI shows more geographic proximity), a
// share of the bots is recruited in the countries hosting the campaign's
// honeypots.
func (g *generator) campaignIPs(n int, pots []int, local bool) []string {
	reg := g.cfg.Registry
	var localCountries []int
	if local {
		seen := map[int]bool{}
		for _, p := range pots {
			if p < len(g.deployments) {
				if loc, ok := reg.Lookup(g.deployments[p].IP); ok {
					if ci, ok2 := countryIndex(reg, loc.Country); ok2 && !seen[ci] {
						seen[ci] = true
						localCountries = append(localCountries, ci)
					}
				}
			}
		}
	}
	out := make([]string, n)
	for i := range out {
		ci := -1
		if len(localCountries) > 0 && g.rng.Float64() < 0.4 {
			ci = localCountries[g.rng.Intn(len(localCountries))]
		}
		out[i] = geo.Uint32ToAddr(reg.SampleClientIP(g.rng, ci)).String()
	}
	return out
}

// buildLocality indexes a URI campaign's honeypots by location so each
// bot can prefer nearby targets.
func (g *generator) buildLocality(c *campaign) {
	c.potsByCountry = make(map[string][]int)
	c.potsByContinent = make(map[geo.Continent][]int)
	for _, p := range c.pots {
		if p < len(g.deployments) {
			if loc, ok := g.cfg.Registry.Lookup(g.deployments[p].IP); ok {
				c.potsByCountry[loc.Country] = append(c.potsByCountry[loc.Country], p)
				c.potsByContinent[loc.Continent] = append(c.potsByContinent[loc.Continent], p)
			}
		}
	}
}

func countryIndex(reg *geo.Registry, code string) (int, bool) {
	for i, c := range reg.Countries() {
		if c.Code == code {
			return i, true
		}
	}
	return -1, false
}

// campaignPot picks the honeypot for one campaign session: each bot IP
// works a small personal slice of the campaign's honeypot set, keeping
// individual clients narrow (Figure 12) while the campaign as a whole
// covers its full subset.
func campaignPot(c *campaign, ip string, rng *rand.Rand) int {
	h := fnv32(ip)
	span := 1 + int(h>>8)%6 // per-IP fan-out of 1–6 honeypots
	if span > len(c.pots) {
		span = len(c.pots)
	}
	start := int(h) % len(c.pots)
	return c.pots[(start+rng.Intn(span))%len(c.pots)]
}

// fnv32 is the 32-bit FNV-1a hash.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// scriptToCommands converts a campaign script into command records;
// path-invocations are "unknown" commands, everything else is emulated.
func scriptToCommands(script []string) []honeypot.CommandRecord {
	out := make([]honeypot.CommandRecord, len(script))
	for i, s := range script {
		known := !strings.HasPrefix(s, "/tmp/") && !strings.HasPrefix(s, "./") &&
			!strings.HasPrefix(s, "/var/tmp/")
		out[i] = honeypot.CommandRecord{Input: s, Known: known}
	}
	return out
}

// planCampaign schedules the campaign's sessions across its active days.
// Each day uses a rotating window into the campaign's IP list, so most
// campaign clients are seen on only one or two days (Figure 13), and a
// quarter of sessions are preceded by a FAIL_LOG brute-force session
// from the same client — campaign bots guess before they land, which is
// how CMD clients end up overlapping FAIL_LOG clients (Section 7.3).
//
// The intrusion's start time is drawn here, not in the decorator: its
// FAIL_LOG precursor must start minutes earlier, and the pair may land
// in different decoration shards.
func (g *generator) planCampaign(c *campaign) {
	perDay := float64(c.sessions) / float64(len(c.activeDays))
	emitted := 0
	for di, day := range c.activeDays {
		n := int(perDay*(0.7+0.6*g.rng.Float64()) + 0.5)
		if n < 1 {
			n = 1
		}
		if di == len(c.activeDays)-1 && emitted+n < c.sessions {
			n = c.sessions - emitted // make up any rounding shortfall
		}
		for i := 0; i < n; i++ {
			ip := c.ips[(c.ipCursor+i)%len(c.ips)]
			pot := g.campaignSessionPot(c, ip)
			start := g.dayStart(g.rng, day)
			if g.rng.Float64() < 0.4 {
				g.emit(planned{
					kind: kindCampaignFail, cat: analysis.FailLog, day: day,
					pot: pot, ip: ip, start: start, camp: c,
				})
			}
			g.emit(planned{
				kind: kindCampaign, cat: c.category, day: day,
				pot: pot, ip: ip, start: start, camp: c,
			})
		}
		c.ipCursor += n // disjoint day-windows: most bot IPs appear once
		emitted += n
	}
}

// campaignSessionPot resolves one campaign session's honeypot: the
// bot's personal slice, the URI-campaign locality bias, then the
// first-pass coverage override.
func (g *generator) campaignSessionPot(c *campaign, ip string) int {
	pot := campaignPot(c, ip, g.rng)
	// URI campaign bots prefer honeypots near home (Figure 16(b)).
	if c.uris != nil && c.potsByCountry != nil && g.rng.Float64() < 0.6 {
		if a, err := netip.ParseAddr(ip); err == nil {
			if loc, ok := g.cfg.Registry.LookupAddr(a); ok {
				if pots := c.potsByCountry[loc.Country]; len(pots) > 0 && g.rng.Float64() < 0.5 {
					pot = pots[g.rng.Intn(len(pots))]
				} else if pots := c.potsByContinent[loc.Continent]; len(pots) > 0 {
					pot = pots[g.rng.Intn(len(pots))]
				}
			}
		}
	}
	// First pass: cover the campaign's full honeypot subset exactly.
	if c.potSeq < len(c.pots) {
		pot = c.pots[c.potSeq]
		c.potSeq++
	}
	return pot
}

// decorateCampaignFail fills rec as the brute-force session preceding a
// campaign intrusion: same client, same honeypot, minutes earlier,
// failed logins. p.start is the paired intrusion's start.
func decorateCampaignFail(rng *rand.Rand, p *planned, rec *honeypot.SessionRecord, sl *slabs) {
	start := p.start.Add(-time.Duration(30+rng.Intn(600)) * time.Second)
	rec.HoneypotID = p.pot
	rec.Protocol = honeypot.SSH
	rec.ClientIP = p.ip
	rec.ClientPort = 1024 + rng.Intn(60000)
	rec.Start = start
	rec.ClientVersion = clientVersions[rng.Intn(len(clientVersions))]
	rec.Logins = failedLogins(rng, &sl.logins)
	rec.Termination = honeypot.TermClient
	rec.End = start.Add(time.Duration(3+rng.Intn(20)) * time.Second)
}

// decorateCampaign fills rec as one campaign intrusion record.
func (g *generator) decorateCampaign(rng *rand.Rand, p *planned, rec *honeypot.SessionRecord, sl *slabs) {
	c := p.camp
	proto := honeypot.SSH
	if rng.Float64() < c.telnetBias {
		proto = honeypot.Telnet
	}
	user, pw := c.user, c.password
	if user == "" {
		user, pw = "root", topPasswords[rng.Intn(len(topPasswords))]
	}
	rec.HoneypotID = p.pot
	rec.Protocol = proto
	rec.ClientIP = p.ip
	rec.ClientPort = 1024 + rng.Intn(60000)
	rec.Start = p.start
	rec.Logins = sl.logins.take(1)
	rec.Logins[0] = honeypot.LoginAttempt{User: user, Password: pw, Success: true}
	rec.Commands = c.commands
	rec.Files = sl.files.take(1)
	rec.Files[0] = honeypot.FileRecord{Path: c.filePath, Hash: c.hash, Op: "create", Size: 1024}
	rec.Termination = honeypot.TermExit
	if proto == honeypot.SSH {
		rec.ClientVersion = clientVersions[rng.Intn(len(clientVersions))]
	}
	dur := time.Duration((15 + rng.ExpFloat64()*40) * float64(time.Second))
	if c.uris != nil {
		rec.URIs = c.uris
		if rng.Float64() < 0.15 {
			dur = 180*time.Second + time.Duration(rng.ExpFloat64()*float64(100*time.Second))
		}
	}
	if dur > 178*time.Second && c.uris == nil {
		dur = 178 * time.Second
	}
	rec.End = p.start.Add(dur)
}
