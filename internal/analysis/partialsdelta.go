package analysis

// Deltas from the rows a batch touched. A puller holds a copy of a
// bundle as of its last cut; what it needs next is a bundle that,
// merged into that copy, yields the bundle as of now. A tracked bundle
// builds it from what Add noted since the cut instead of folding the
// records a second time:
//
//   - Add stamps each client row it touches with the cut's epoch (the
//     row's epoch field) and puts each hash row it touches in a per-cut
//     set; on a row's first touch since the cut it appends the row's
//     key and its sessions before the touch to a touched list.
//   - Add appends each set member it finds new — a pot, a day, or a
//     hash's client IP — to a flat member list.
//   - CutDelta, where Add cannot run, reads each touched row's session
//     difference and categories and the counters' differences since the
//     cut, and swaps the lists out. Its encoder, run where Add can,
//     sorts them, locates the countries of the client rows new since the
//     cut and writes an ordinary version-2 encoding through the full
//     encoding's row writers.
//
// Counters are differences and every set holds only the members new
// since the cut — a country only the IPs new to the bundle — so merging
// the delta into the copy is exactly merging the bundle of the same
// records folded afresh, which is never smaller. Tracking stops once
// the touched clients exceed half the client table: a puller that went
// away costs bounded memory, and CutDelta then has nothing to offer.

import (
	"cmp"
	"slices"
	"strings"
	"sync/atomic"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/wire"
)

// tracker is what a tracked bundle keeps between cuts.
type tracker struct {
	log *cutLog // what Add appends to
	// spare is a log its encoder is done with, for the next cut.
	spare atomic.Pointer[cutLog]
	// hashes holds the hash rows touched since the cut: a hashAcc has no
	// room for a stamp in its size class.
	hashes map[*hashAcc]struct{}
	// cats and sessions are the bundle's counters as of the cut.
	cats     CategoryAccum
	sessions []int
	// reg locates the IPs of new client rows when countries is set.
	reg       *geo.Registry
	countries bool
}

// cutLog is one interval's lists and, once cut, its encoder's input.
type cutLog struct {
	t          *tracker
	clients    []touchedRow
	hashes     []touchedRow
	clientSets []member
	hashSets   []member
	hashIPs    []keyIP
	// cats and sessions are the counters' differences, set at the cut.
	cats     CategoryAccum
	sessions []int
	// encode is encodeTo, bound once: handing it out allocates nothing.
	encode func(*wire.Builder)
	// The encoder's scratch.
	sets    [2]intSet
	ips     []string
	located []keyIP
}

// touchedRow is a row touched since the cut: its key, its session
// counter (and a client row's categories), and the counter's value
// before the first touch — 0 for a row new since the cut. The cut sets
// n, the sessions since, and c, the categories.
type touchedRow struct {
	key      string
	sessions *int
	cats     *uint8
	before   int
	n        int
	c        uint8
}

// member is a set member new since the cut: v joined set (setPots or
// setDays) of the row keyed key.
type member struct {
	key string
	set uint8
	v   int
}

const (
	setPots = iota
	setDays
)

// keyIP pairs a key with an IP: a hash and an IP new to its row, or a
// country and a client new to the bundle.
type keyIP struct{ key, ip string }

// Track makes the bundle's current state a cut: from here on Add notes
// what it touches, for CutDelta. Called while tracking, it starts over.
func (p *Partials) Track() {
	t := p.track
	if t == nil {
		t = &tracker{hashes: make(map[*hashAcc]struct{}), sessions: make([]int, len(p.sessions))}
		if p.Countries != nil {
			t.reg, t.countries = p.Countries.reg, true
		}
		t.log = t.newLog()
		p.track = t
	}
	t.log.reset()
	p.nextCut()
}

// Touched returns how many client and hash rows the records added
// since the last cut touched — the rows CutDelta encodes — and 0 when
// the bundle is not tracked.
func (p *Partials) Touched() int {
	if p.track == nil {
		return 0
	}
	return len(p.track.log.clients) + len(p.track.log.hashes)
}

// CutDelta ends the interval since the last cut (or Track) and starts
// the next. It returns the encoder of the interval's delta — nil when
// the bundle is not tracked, or no longer is — which appends to b a
// bundle encoding that, merged into this bundle as of the last cut,
// yields it as of now. CutDelta runs where Add cannot, in
// O(touched rows + pots); the encoder reads nothing Add writes, so it
// runs where Add can, at most once.
func (p *Partials) CutDelta() (encode func(b *wire.Builder)) {
	t := p.track
	if t == nil {
		return nil
	}
	l := t.log
	for i := range l.clients {
		r := &l.clients[i]
		r.n, r.c = *r.sessions-r.before, *r.cats
	}
	for i := range l.hashes {
		r := &l.hashes[i]
		r.n = *r.sessions - r.before
	}
	l.cats = *p.Cats
	for c := range l.cats.Counts {
		l.cats.Counts[c] -= t.cats.Counts[c]
		l.cats.SSHCounts[c] -= t.cats.SSHCounts[c]
	}
	l.cats.SSH -= t.cats.SSH
	for i, n := range p.sessions {
		l.sessions[i] = n - t.sessions[i]
	}
	if t.log = t.spare.Swap(nil); t.log == nil {
		t.log = t.newLog()
	}
	t.log.reset()
	p.nextCut()
	return l.encode
}

// nextCut makes now the tracked bundle's cut: the counters as they are,
// no row touched yet.
func (p *Partials) nextCut() {
	t := p.track
	t.cats = *p.Cats
	copy(t.sessions, p.sessions)
	clear(t.hashes)
	if p.epoch++; p.epoch == 0 {
		// Wrapped: a row stamped 2^32 cuts ago must not read as touched.
		for _, acc := range p.Clients.m {
			acc.epoch = 0
		}
		p.epoch = 1
	}
}

// touchClient notes acc, the client row r was folded into, and what of
// it was fresh; the first touch that takes the touched clients past
// half the table stops tracking.
func (p *Partials) touchClient(r *honeypot.SessionRecord, day int, acc *clientAcc, fresh uint8) {
	l := p.track.log
	if acc.epoch != p.epoch {
		acc.epoch = p.epoch
		l.clients = append(l.clients, touchedRow{key: r.ClientIP, sessions: &acc.sessions, cats: &acc.cats, before: acc.sessions - 1})
		if 2*len(l.clients) > len(p.Clients.m) {
			p.track = nil
			return
		}
	}
	if fresh&freshPot != 0 {
		l.clientSets = append(l.clientSets, member{r.ClientIP, setPots, r.HoneypotID})
	}
	if fresh&freshDay != 0 {
		l.clientSets = append(l.clientSets, member{r.ClientIP, setDays, day})
	}
}

// touchHash notes acc, the row of hash h that r was folded into, and
// what of it was fresh.
func (t *tracker) touchHash(h string, acc *hashAcc, r *honeypot.SessionRecord, day int, fresh uint8) {
	l := t.log
	if _, ok := t.hashes[acc]; !ok {
		t.hashes[acc] = struct{}{}
		l.hashes = append(l.hashes, touchedRow{key: h, sessions: &acc.sessions, before: acc.sessions - 1})
	}
	if fresh&freshIP != 0 {
		l.hashIPs = append(l.hashIPs, keyIP{h, r.ClientIP})
	}
	if fresh&freshPot != 0 {
		l.hashSets = append(l.hashSets, member{h, setPots, r.HoneypotID})
	}
	if fresh&freshDay != 0 {
		l.hashSets = append(l.hashSets, member{h, setDays, day})
	}
}

func (t *tracker) newLog() *cutLog {
	l := &cutLog{t: t, sessions: make([]int, len(t.sessions))}
	l.encode = l.encodeTo
	return l
}

func (l *cutLog) reset() {
	l.clients, l.hashes = l.clients[:0], l.hashes[:0]
	l.clientSets, l.hashSets, l.hashIPs = l.clientSets[:0], l.hashSets[:0], l.hashIPs[:0]
}

// encodeTo appends the delta to b, in Encode's layout, and hands the
// log back to the tracker.
func (l *cutLog) encodeTo(b *wire.Builder) {
	slices.SortFunc(l.clients, func(x, y touchedRow) int { return strings.Compare(x.key, y.key) })
	slices.SortFunc(l.hashes, func(x, y touchedRow) int { return strings.Compare(x.key, y.key) })
	slices.SortFunc(l.clientSets, compareMembers)
	slices.SortFunc(l.hashSets, compareMembers)
	slices.SortFunc(l.hashIPs, compareKeyIPs)
	b.Grow(l.sizeHint())
	b.Byte(partialsWireVersion)
	b.Bool(l.t.countries)
	encodeCats(b, &l.cats)
	encodePotSessions(b, l.sessions)
	b.Uint32(uint32(len(l.clients)))
	ms := l.clientSets
	for _, r := range l.clients {
		ms = l.takeSets(ms, r.key)
		encodeClientRow(b, r.key, r.n, l.sets[setPots], l.sets[setDays], r.c)
	}
	if l.t.countries {
		l.encodeCountries(b)
	}
	b.Uint32(uint32(len(l.hashes)))
	ms, ips := l.hashSets, l.hashIPs
	for _, r := range l.hashes {
		ms, ips = l.takeSets(ms, r.key), l.takeIPs(ips, r.key)
		encodeHashRow(b, r.key, r.n, l.ips, l.sets[setDays], l.sets[setPots])
	}
	l.t.spare.Store(l)
}

// encodeCountries writes the country section: the client rows new since
// the cut, located, by country.
func (l *cutLog) encodeCountries(b *wire.Builder) {
	l.located = l.located[:0]
	for _, r := range l.clients {
		if r.before != 0 {
			continue
		}
		if loc, ok := locate(l.t.reg, r.key); ok {
			l.located = append(l.located, keyIP{loc.Country, r.key})
		}
	}
	slices.SortFunc(l.located, compareKeyIPs)
	n := 0
	for i := range l.located {
		if i == 0 || l.located[i].key != l.located[i-1].key {
			n++
		}
	}
	b.Uint32(uint32(n))
	for rest := l.located; len(rest) > 0; {
		code := rest[0].key
		rest = l.takeIPs(rest, code)
		encodeCountryRow(b, code, l.ips)
	}
}

// takeSets assembles in l.sets the members of row key at the head of
// ms, which is sorted as compareMembers sorts, and returns the rest.
func (l *cutLog) takeSets(ms []member, key string) []member {
	l.sets[setPots], l.sets[setDays] = l.sets[setPots][:0], l.sets[setDays][:0]
	for ; len(ms) > 0 && ms[0].key == key; ms = ms[1:] {
		l.sets[ms[0].set] = l.sets[ms[0].set].push(ms[0].v)
	}
	return ms
}

// takeIPs collects in l.ips the IPs of the pairs keyed key at the head
// of kv, which is sorted as compareKeyIPs sorts, and returns the rest.
func (l *cutLog) takeIPs(kv []keyIP, key string) []keyIP {
	l.ips = l.ips[:0]
	for ; len(kv) > 0 && kv[0].key == key; kv = kv[1:] {
		l.ips = append(l.ips, kv[0].ip)
	}
	return kv
}

// sizeHint bounds what encodeTo appends, as encodedSizeHint does for
// Encode: every client row priced with a country entry.
func (l *cutLog) sizeHint() int {
	const setIP = 4 + len("255.255.255.255")
	n := 64 + 16*int(NumCategories) + 8*len(l.sessions) +
		8*(len(l.clientSets)+len(l.hashSets)) + setIP*len(l.hashIPs)
	for _, r := range l.clients {
		n += 4 + len(r.key) + 8 + 4 + 4 + 1 + 4 + 2 + 4 + setIP
	}
	for _, r := range l.hashes {
		n += 4 + len(r.key) + 8 + 4 + 4 + 4
	}
	return n
}

func compareMembers(x, y member) int {
	if c := strings.Compare(x.key, y.key); c != 0 {
		return c
	}
	if x.set != y.set {
		return cmp.Compare(x.set, y.set)
	}
	return cmp.Compare(x.v, y.v)
}

func compareKeyIPs(x, y keyIP) int {
	if c := strings.Compare(x.key, y.key); c != 0 {
		return c
	}
	return strings.Compare(x.ip, y.ip)
}
