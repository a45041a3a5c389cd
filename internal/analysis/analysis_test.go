package analysis

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/store"
)

var epoch = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

// mk builds a session record with the given traits.
type mk struct {
	day      int
	pot      int
	ip       string
	proto    honeypot.Protocol
	logins   []honeypot.LoginAttempt
	commands []honeypot.CommandRecord
	uris     []string
	files    []honeypot.FileRecord
	dur      time.Duration
}

func (m mk) rec() *honeypot.SessionRecord {
	start := epoch.Add(time.Duration(m.day)*24*time.Hour + 6*time.Hour)
	dur := m.dur
	if dur == 0 {
		dur = 10 * time.Second
	}
	return &honeypot.SessionRecord{
		HoneypotID: m.pot, ClientIP: m.ip, Protocol: m.proto,
		Start: start, End: start.Add(dur),
		Logins: m.logins, Commands: m.commands, URIs: m.uris, Files: m.files,
	}
}

func okLogin() []honeypot.LoginAttempt {
	return []honeypot.LoginAttempt{{User: "root", Password: "1234", Success: true}}
}

func failLogin() []honeypot.LoginAttempt {
	return []honeypot.LoginAttempt{{User: "admin", Password: "admin"}}
}

func cmd(s string) []honeypot.CommandRecord {
	return []honeypot.CommandRecord{{Input: s, Known: true}}
}

func TestClassifyTruthTable(t *testing.T) {
	cases := []struct {
		name string
		m    mk
		want Category
	}{
		{"scan", mk{}, NoCred},
		{"failed login", mk{logins: failLogin()}, FailLog},
		{"login no cmd", mk{logins: okLogin()}, NoCmd},
		{"login cmd", mk{logins: okLogin(), commands: cmd("uname")}, Cmd},
		{"login cmd uri", mk{logins: okLogin(), commands: cmd("wget http://x"), uris: []string{"http://x"}}, CmdURI},
		{"fail then success", mk{logins: append(failLogin(), okLogin()...), commands: cmd("ls")}, Cmd},
	}
	for _, c := range cases {
		if got := Classify(c.m.rec()); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBehaviorMapping(t *testing.T) {
	if BehaviorOf(NoCred) != Scanning || BehaviorOf(FailLog) != Scouting {
		t.Error("behavior mapping wrong")
	}
	for _, c := range []Category{NoCmd, Cmd, CmdURI} {
		if BehaviorOf(c) != Intrusion {
			t.Errorf("%v should be intrusion", c)
		}
	}
	if Scanning.String() != "scanning" || Intrusion.String() != "intrusion" {
		t.Error("behavior strings wrong")
	}
}

func TestCategoryString(t *testing.T) {
	if NoCred.String() != "NO_CRED" || CmdURI.String() != "CMD+URI" {
		t.Error("category names wrong")
	}
	if Category(200).String() != "UNKNOWN" {
		t.Error("out of range should be UNKNOWN")
	}
}

// Property: classification is total and consistent with its definition.
func TestQuickClassifyInvariants(t *testing.T) {
	f := func(nLogins uint8, success bool, nCmds, nURIs uint8) bool {
		r := &honeypot.SessionRecord{}
		for i := 0; i < int(nLogins%4); i++ {
			r.Logins = append(r.Logins, honeypot.LoginAttempt{User: "x"})
		}
		if success && len(r.Logins) > 0 {
			r.Logins[0].Success = true
		}
		for i := 0; i < int(nCmds%4); i++ {
			r.Commands = append(r.Commands, honeypot.CommandRecord{Input: "c"})
		}
		for i := 0; i < int(nURIs%3); i++ {
			r.URIs = append(r.URIs, "http://u")
		}
		c := Classify(r)
		if len(r.Logins) == 0 {
			return c == NoCred
		}
		if !r.LoggedIn() {
			return c == FailLog
		}
		if len(r.Commands) == 0 {
			return c == NoCmd
		}
		if len(r.URIs) == 0 {
			return c == Cmd
		}
		return c == CmdURI
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func buildStore(ms ...mk) *store.Store {
	s := store.New(epoch)
	for _, m := range ms {
		s.Add(m.rec())
	}
	return s
}

func TestComputeCategoryShares(t *testing.T) {
	s := buildStore(
		mk{proto: honeypot.Telnet},                                      // NO_CRED telnet
		mk{proto: honeypot.SSH, logins: failLogin()},                    // FAIL_LOG ssh
		mk{proto: honeypot.SSH, logins: okLogin()},                      // NO_CMD ssh
		mk{proto: honeypot.SSH, logins: okLogin(), commands: cmd("ls")}, // CMD ssh
	)
	cs := ComputeCategoryShares(s)
	if cs.Total != 4 {
		t.Fatalf("total = %d", cs.Total)
	}
	if cs.Overall[NoCred] != 0.25 || cs.Overall[Cmd] != 0.25 {
		t.Errorf("shares = %v", cs.Overall)
	}
	if cs.SSHTotal != 0.75 {
		t.Errorf("ssh total = %v", cs.SSHTotal)
	}
	if cs.SSHShareOfCategory[NoCred] != 0 || cs.SSHShareOfCategory[FailLog] != 1 {
		t.Errorf("per-category ssh = %v", cs.SSHShareOfCategory)
	}
	empty := ComputeCategoryShares(store.New(epoch))
	if empty.Total != 0 {
		t.Error("empty store should have zero total")
	}
}

func TestTopPasswordsAndUsernames(t *testing.T) {
	s := buildStore(
		mk{logins: []honeypot.LoginAttempt{{User: "root", Password: "admin", Success: true}}},
		mk{logins: []honeypot.LoginAttempt{{User: "root", Password: "admin", Success: true}}},
		mk{logins: []honeypot.LoginAttempt{{User: "root", Password: "1234", Success: true}}},
		mk{logins: []honeypot.LoginAttempt{{User: "nproc", Password: "nope"}}},
	)
	top := TopPasswords(s, 2)
	if len(top) != 2 || top[0].Value != "admin" || top[0].Count != 2 {
		t.Errorf("top passwords = %+v", top)
	}
}

func TestTopCommandsSplitsSegments(t *testing.T) {
	s := buildStore(
		mk{logins: okLogin(), commands: []honeypot.CommandRecord{
			{Input: "cat /proc/cpuinfo | grep name | wc -l", Known: true},
			{Input: "cat /proc/cpuinfo", Known: true},
		}},
	)
	top := TopCommands(s, 5)
	if top[0].Value != "cat /proc/cpuinfo" || top[0].Count != 2 {
		t.Errorf("top commands = %+v", top)
	}
}

func TestComputePerHoneypotAndRank(t *testing.T) {
	s := buildStore(
		mk{pot: 0, ip: "1.1.1.1"},
		mk{pot: 0, ip: "2.2.2.2"},
		mk{pot: 1, ip: "1.1.1.1", logins: okLogin(), commands: cmd("x"),
			files: []honeypot.FileRecord{{Hash: "aaa"}}},
		mk{pot: 99, ip: "3.3.3.3"}, // out of range, ignored
	)
	per := ComputePerHoneypot(s, 2)
	if per[0].Sessions != 2 || per[0].Clients != 2 || per[0].Hashes != 0 {
		t.Errorf("pot0 = %+v", per[0])
	}
	if per[1].Sessions != 1 || per[1].Hashes != 1 {
		t.Errorf("pot1 = %+v", per[1])
	}
	rank := SessionRank(per)
	if rank[0] != 2 || rank[1] != 1 {
		t.Errorf("rank = %v", rank)
	}
}

func TestDailyMatrixAndSeries(t *testing.T) {
	s := buildStore(
		mk{day: 0, pot: 0},
		mk{day: 0, pot: 1},
		mk{day: 2, pot: 0},
		mk{day: 2, pot: 0, logins: okLogin()},
	)
	m := DailyMatrix(s, 2, -1)
	if len(m) != 3 {
		t.Fatalf("days = %d", len(m))
	}
	if m[0][0] != 1 || m[0][1] != 1 || m[2][0] != 2 {
		t.Errorf("matrix = %v", m)
	}
	// Filtered to NO_CRED only.
	mc := DailyMatrix(s, 2, int(NoCred))
	if mc[2][0] != 1 {
		t.Errorf("filtered matrix = %v", mc)
	}
	series := PercentileSeries(m)
	if len(series.Bands) != 3 {
		t.Errorf("series bands = %d", len(series.Bands))
	}
	if series.Bands[0].Median != 1 {
		t.Errorf("day0 median = %v", series.Bands[0].Median)
	}
}

func TestTopPotsAndFilter(t *testing.T) {
	per := []PerHoneypot{{Sessions: 5}, {Sessions: 100}, {Sessions: 50}, {Sessions: 1}}
	top := TopPotsByActivity(per, 0.5)
	if len(top) != 2 || top[0] != 1 || top[1] != 2 {
		t.Errorf("top = %v", top)
	}
	m := [][]float64{{1, 2, 3, 4}}
	f := FilterMatrixPots(m, top)
	if len(f[0]) != 2 || f[0][0] != 2 || f[0][1] != 3 {
		t.Errorf("filtered = %v", f)
	}
}

func TestCategoryTimeline(t *testing.T) {
	s := buildStore(
		mk{day: 0},
		mk{day: 0, logins: failLogin()},
		mk{day: 1, logins: okLogin(), commands: cmd("ls")},
	)
	tl := ComputeCategoryTimeline(s)
	if len(tl.Total) != 2 || tl.Total[0] != 2 || tl.Total[1] != 1 {
		t.Errorf("totals = %v", tl.Total)
	}
	if tl.PerDay[0][NoCred] != 1 || tl.PerDay[0][FailLog] != 1 || tl.PerDay[1][Cmd] != 1 {
		t.Errorf("per day = %v", tl.PerDay)
	}
}

func TestDurationECDFs(t *testing.T) {
	s := buildStore(
		mk{dur: 5 * time.Second},
		mk{dur: 180 * time.Second, logins: okLogin()},
	)
	e := DurationECDFs(s)
	if e[NoCred].Len() != 1 || e[NoCmd].Len() != 1 {
		t.Errorf("ecdf sizes: %d %d", e[NoCred].Len(), e[NoCmd].Len())
	}
	if got := e[NoCmd].Quantile(0.5); got != 180 {
		t.Errorf("NO_CMD median duration = %v", got)
	}
}

func TestComputeHashStats(t *testing.T) {
	s := buildStore(
		mk{day: 0, pot: 0, ip: "1.1.1.1", logins: okLogin(), commands: cmd("x"),
			files: []honeypot.FileRecord{{Hash: "h1"}, {Hash: "h1"}}}, // dup within session counts once
		mk{day: 1, pot: 1, ip: "2.2.2.2", logins: okLogin(), commands: cmd("x"),
			files: []honeypot.FileRecord{{Hash: "h1"}}},
		mk{day: 1, pot: 1, ip: "2.2.2.2", logins: okLogin(), commands: cmd("x"),
			files: []honeypot.FileRecord{{Hash: "h2"}}},
	)
	hs := ComputeHashStats(s, func(h string) string {
		if h == "h1" {
			return "mirai"
		}
		return "unknown"
	})
	if len(hs) != 2 {
		t.Fatalf("hashes = %d", len(hs))
	}
	var h1 HashStat
	for _, h := range hs {
		if h.Hash == "h1" {
			h1 = h
		}
	}
	if h1.Sessions != 2 || h1.ClientIPs != 2 || h1.Days != 2 || h1.Honeypots != 2 {
		t.Errorf("h1 = %+v", h1)
	}
	if h1.Tag != "mirai" || h1.FirstDay != 0 || h1.LastDay != 1 {
		t.Errorf("h1 meta = %+v", h1)
	}

	bySess := SortHashStats(hs, BySessions)
	if bySess[0].Hash != "h1" {
		t.Errorf("sort by sessions = %v", bySess)
	}
	byIPs := SortHashStats(hs, ByClientIPs)
	if byIPs[0].Hash != "h1" {
		t.Errorf("sort by ips = %v", byIPs)
	}
	byDays := SortHashStats(hs, ByDays)
	if byDays[0].Hash != "h1" {
		t.Errorf("sort by days = %v", byDays)
	}
}

func TestHashVisibility(t *testing.T) {
	hs := []HashStat{
		{Hash: "a", Honeypots: 1},
		{Hash: "b", Honeypots: 1},
		{Hash: "c", Honeypots: 15},
		{Hash: "d", Honeypots: 120},
	}
	v := ComputeHashVisibility(hs, 221)
	if v.Single != 0.5 {
		t.Errorf("single = %v", v.Single)
	}
	if v.MoreThan10 != 0.5 {
		t.Errorf(">10 = %v", v.MoreThan10)
	}
	if v.MoreThanHalf != 1 {
		t.Errorf(">half = %v", v.MoreThanHalf)
	}
	if empty := ComputeHashVisibility(nil, 221); empty.Total != 0 {
		t.Error("empty should be zero")
	}
}

func TestHashFreshness(t *testing.T) {
	s := buildStore(
		mk{day: 0, logins: okLogin(), commands: cmd("x"), files: []honeypot.FileRecord{{Hash: "a"}}},
		mk{day: 1, logins: okLogin(), commands: cmd("x"), files: []honeypot.FileRecord{{Hash: "a"}}},
		mk{day: 1, logins: okLogin(), commands: cmd("x"), files: []honeypot.FileRecord{{Hash: "b"}}},
	)
	hf := ComputeHashFreshness(s)
	if hf.UniqueHashes[0] != 1 || hf.UniqueHashes[1] != 2 {
		t.Errorf("unique = %v", hf.UniqueHashes)
	}
	if hf.FreshAll[0] != 1 {
		t.Errorf("day0 fresh = %v", hf.FreshAll[0])
	}
	if hf.FreshAll[1] != 0.5 {
		t.Errorf("day1 fresh = %v", hf.FreshAll[1])
	}
}

func TestClientRanks(t *testing.T) {
	s := buildStore(
		mk{ip: "1.1.1.1", logins: okLogin(), commands: cmd("x"), files: []honeypot.FileRecord{{Hash: "a"}}},
		mk{ip: "1.1.1.1", logins: okLogin(), commands: cmd("x"), files: []honeypot.FileRecord{{Hash: "b"}}},
		mk{ip: "2.2.2.2", logins: okLogin(), commands: cmd("x"), files: []honeypot.FileRecord{{Hash: "a"}}},
	)
	hs := ComputeHashStats(s, nil)
	hr := HashClientRank(hs)
	if len(hr) != 2 || hr[0] != 2 { // hash "a" seen from 2 IPs
		t.Errorf("hash rank = %v", hr)
	}
	cr := ClientHashRank(s)
	if len(cr) != 2 || cr[0] != 2 { // client 1.1.1.1 dropped 2 hashes
		t.Errorf("client rank = %v", cr)
	}
}

func TestCampaignDurationECDFs(t *testing.T) {
	hs := []HashStat{
		{Hash: "a", Days: 1, Tag: "mirai"},
		{Hash: "b", Days: 30, Tag: "trojan"},
		{Hash: "c", Days: 1, Tag: "mirai"},
	}
	e := CampaignDurationECDFs(hs)
	if e["all"].Len() != 3 || e["mirai"].Len() != 2 || e["trojan"].Len() != 1 {
		t.Errorf("ecdf sizes wrong")
	}
	if e["mirai"].Quantile(1) != 1 {
		t.Errorf("mirai max = %v", e["mirai"].Quantile(1))
	}
}

func TestClientStats(t *testing.T) {
	s := buildStore(
		mk{day: 0, pot: 0, ip: "1.1.1.1"},
		mk{day: 1, pot: 1, ip: "1.1.1.1", logins: failLogin()},
		mk{day: 0, pot: 0, ip: "2.2.2.2"},
	)
	clients := ComputeClientStats(s, -1)
	if len(clients) != 2 {
		t.Fatalf("clients = %d", len(clients))
	}
	var c1 ClientStat
	for _, c := range clients {
		if c.IP == "1.1.1.1" {
			c1 = c
		}
	}
	if c1.Sessions != 2 || c1.Honeypots != 2 || c1.ActiveDays != 2 {
		t.Errorf("c1 = %+v", c1)
	}
	if !c1.HasCategory(NoCred) || !c1.HasCategory(FailLog) || c1.NumCategoriesSeen() != 2 {
		t.Errorf("c1 categories = %08b", c1.Categories)
	}
	if got := MultiCategoryShare(clients); got != 0.5 {
		t.Errorf("multi share = %v", got)
	}
	// Restricted to NO_CRED.
	nc := ComputeClientStats(s, int(NoCred))
	if len(nc) != 2 {
		t.Errorf("NO_CRED clients = %d", len(nc))
	}
	if MultiCategoryShare(nil) != 0 {
		t.Error("empty share should be 0")
	}
}

func TestCategoryCombos(t *testing.T) {
	s := buildStore(
		mk{day: 0, ip: "1.1.1.1"},                                        // NO_CRED
		mk{day: 0, ip: "1.1.1.1", logins: failLogin()},                   // + FAIL_LOG same day
		mk{day: 0, ip: "2.2.2.2", logins: okLogin(), commands: cmd("x")}, // CMD only
		mk{day: 1, ip: "1.1.1.1"},                                        // NO_CRED next day
	)
	total := TotalComboCounts(s)
	if total[ComboKey(1|2)] != 1 || total[ComboKey(4)] != 1 {
		t.Errorf("total combos = %v", total)
	}
	if ComboKey(1|4).String() != "NO_CRED+CMD" {
		t.Errorf("combo name = %s", ComboKey(1|4).String())
	}
	if ComboKey(0).String() != "none" {
		t.Error("empty combo name")
	}
}

func TestClientCountriesAndRegionalDiversity(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	deps, err := geo.Place(geo.PlacementConfig{Seed: 1, NumPots: 221, Registry: reg, Residental: true})
	if err != nil {
		t.Fatal(err)
	}
	s := store.New(epoch)
	// Three clients: one sharing the honeypot's country, one on the same
	// continent, one far away.
	pot := deps[0]
	potLoc, _ := reg.Lookup(pot.IP)
	var sameCountry, sameCont, far string
	for _, as := range reg.ASes() {
		loc, _ := reg.Lookup(as.Base)
		switch {
		case sameCountry == "" && loc.Country == potLoc.Country:
			sameCountry = loc.IP.String()
		case sameCont == "" && loc.Country != potLoc.Country && loc.Continent == potLoc.Continent:
			sameCont = loc.IP.String()
		case far == "" && loc.Continent != potLoc.Continent:
			far = loc.IP.String()
		}
	}
	if sameCountry == "" || sameCont == "" || far == "" {
		t.Fatal("could not find test IPs")
	}
	for _, ip := range []string{sameCountry, sameCont, far} {
		s.Add(mk{day: 0, pot: pot.ID, ip: ip}.rec())
	}
	cc := ClientCountries(s, reg, nil)
	if len(cc) < 2 {
		t.Fatalf("countries = %+v", cc)
	}
	rd := ComputeRegionalDiversity(s, reg, deps, nil)
	if rd.Clients[0] != 3 {
		t.Fatalf("day0 clients = %d", rd.Clients[0])
	}
	fr := rd.Fractions[0]
	if fr[CountryOnly] == 0 || fr[ContinentOnly] == 0 || fr[OutOnly] == 0 {
		t.Errorf("fractions = %v", fr)
	}
	mean := rd.MeanFractions()
	sum := 0.0
	for _, v := range mean {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("mean fractions sum = %v", sum)
	}
}

func TestRegionClassification(t *testing.T) {
	cases := []struct {
		country, continent, out bool
		want                    RegionClass
	}{
		{true, false, false, CountryOnly},
		{true, true, false, CountryMixed},
		{true, false, true, CountryMixed},
		{false, true, false, ContinentOnly},
		{false, true, true, ContinentAndOut},
		{false, false, true, OutOnly},
	}
	for _, c := range cases {
		if got := classifyRelations(c.country, c.continent, c.out); got != c.want {
			t.Errorf("classifyRelations(%v,%v,%v) = %v, want %v", c.country, c.continent, c.out, got, c.want)
		}
	}
	if OutOnly.String() != "out-of-continent" || CountryOnly.String() != "same-country-only" {
		t.Error("region class names wrong")
	}
}

func TestDailyUniqueClients(t *testing.T) {
	s := buildStore(
		mk{day: 0, ip: "1.1.1.1"},
		mk{day: 0, ip: "1.1.1.1"}, // same IP, same day: counted once
		mk{day: 0, ip: "2.2.2.2", logins: failLogin()},
	)
	daily := DailyUniqueClients(s)
	if daily[0][NoCred] != 1 || daily[0][FailLog] != 1 {
		t.Errorf("daily = %v", daily[0])
	}
}

func BenchmarkClassify(b *testing.B) {
	recs := make([]*honeypot.SessionRecord, 5)
	recs[0] = mk{}.rec()
	recs[1] = mk{logins: failLogin()}.rec()
	recs[2] = mk{logins: okLogin()}.rec()
	recs[3] = mk{logins: okLogin(), commands: cmd("x")}.rec()
	recs[4] = mk{logins: okLogin(), commands: cmd("x"), uris: []string{"u"}}.rec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Classify(recs[i%5])
	}
}

func BenchmarkComputeHashStats(b *testing.B) {
	s := store.New(epoch)
	for i := 0; i < 50000; i++ {
		s.Add(mk{
			day: i % 480, pot: i % 221, ip: fmt.Sprintf("10.0.%d.%d", i/250%250, i%250),
			logins: okLogin(), commands: cmd("x"),
			files: []honeypot.FileRecord{{Hash: fmt.Sprintf("h%d", i%3000)}},
		}.rec())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeHashStats(s, nil)
	}
}

func TestTopClientVersions(t *testing.T) {
	s := store.New(epoch)
	for i := 0; i < 3; i++ {
		r := mk{ip: "1.1.1.1"}.rec()
		r.ClientVersion = "SSH-2.0-libssh2_1.8.0"
		s.Add(r)
	}
	r := mk{ip: "2.2.2.2"}.rec()
	r.ClientVersion = "SSH-2.0-Go"
	s.Add(r)
	s.Add(mk{ip: "3.3.3.3", proto: honeypot.Telnet}.rec()) // no version
	top := TopClientVersions(s, 5)
	if len(top) != 2 || top[0].Value != "SSH-2.0-libssh2_1.8.0" || top[0].Count != 3 {
		t.Errorf("top versions = %+v", top)
	}
}

func TestDayHelpers(t *testing.T) {
	s := buildStore(mk{day: 2})
	if got := s.NumDays(); got != 3 {
		t.Errorf("NumDays = %d, want 3", got)
	}
	mid := s.Epoch().Add(2*24*time.Hour + 12*time.Hour)
	if s.Day(mid) != 2 {
		t.Errorf("day 2's midpoint maps back to day %d", s.Day(mid))
	}
}
