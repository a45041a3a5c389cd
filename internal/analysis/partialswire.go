package analysis

// The transferable form of the mergeable partial aggregates: a Partials
// bundle groups one instance of every accumulator, and Encode/Decode
// move the complete bundle through internal/wire's length-prefixed
// binary layout so a shard collector can serve its accumulator state to
// a remote merge coordinator.
//
// Two contracts matter here:
//
//   - Losslessness: DecodePartials(Encode(p)) folded into any other
//     bundle must behave exactly like folding p directly — same Merge
//     results, same Finalize outputs, byte for byte after JSON
//     encoding. TestPartialsWireMergeEquivalence pins this with
//     testing/quick over random record sets.
//   - Determinism: the encoding of a given accumulator state is one
//     exact byte string. Every map is therefore written in sorted key
//     order; nothing about Go's map iteration order can leak into the
//     bytes a shard puts on the wire.
//
// The bundle is versioned (partialsWireVersion) so a fleet can refuse a
// peer speaking a different layout instead of misdecoding it. Version 2:
//
//	version | hasCountries | cats
//	pots:      n, n × sessions
//	clients:   n, n × (ip, sessions, pots, days, cats)
//	countries: n, n × (code, ips)            — only if hasCountries
//	hashes:    n, n × (hash, sessions, ips, days, pots)
//
// with every set as count, ascending members. Nothing per pot but the
// session counts travels: the distinct-client and distinct-hash columns
// are recounted from the rows' pot sets as they are decoded, and a
// hash's first and last day are the ends of its day set, so a frame
// cannot state any of them at odds with the rows beside them.

import (
	"fmt"
	"sort"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/wire"
)

// partialsWireVersion tags the Partials wire layout. Bump on any change
// to the encoded field set so mixed-version fleets fail loudly.
const partialsWireVersion = 2

// Partials is the complete foldable state behind a query snapshot: two
// keyed tables (clients, hashes), the country table, and counters. Every
// per-honeypot column is a counter — sessions here, distinct clients and
// hashes maintained by the two tables from their rows' pot sets
// (FinalizePots) — so no (client, pot) or (hash, pot) pair is stored
// anywhere but in its row. The incremental
// engine folds records into a bundle; a shard serves its bundle over
// the wire; the merge coordinator folds decoded bundles together. All
// three paths share these methods, so the fold semantics cannot drift
// between single-node and distributed operation.
type Partials struct {
	// Cats is Table 1's category × protocol accumulator.
	Cats *CategoryAccum
	// Clients is the per-client-IP accumulator (all categories).
	Clients *ClientAccum
	// Countries is the per-country unique-client accumulator; nil when
	// the country table is disabled (no registry).
	Countries *CountryAccum
	// Hashes is the per-file-hash accumulator.
	Hashes *HashAccum
	// sessions counts sessions per honeypot, sized for the full farm
	// (every shard sizes it identically so bundles merge index-aligned).
	sessions []int
}

// NewPartials creates an empty bundle sized for numPots honeypots.
// reg resolves client IPs for the country table and may be nil when the
// bundle will only merge decoded peers (Add requires it to locate IPs);
// countries controls whether the country table exists at all — pass
// false to produce snapshots without one, matching an engine built
// without a registry.
func NewPartials(numPots int, reg *geo.Registry, countries bool) *Partials {
	p := &Partials{
		Cats:     new(CategoryAccum),
		Clients:  NewClientAccum(-1),
		Hashes:   NewHashAccum(),
		sessions: make([]int, numPots),
	}
	p.Clients.perPot = make([]int, numPots)
	p.Hashes.perPot = make([]int, numPots)
	if countries {
		p.Countries = NewCountryAccum(reg, nil)
	}
	return p
}

// NumPots returns the per-honeypot table size the bundle was built for.
func (p *Partials) NumPots() int { return len(p.sessions) }

// FinalizePots renders the per-honeypot table, exactly what a PotAccum
// folded over the same records finalizes to: IDs outside [0, NumPots)
// are in no row of it.
func (p *Partials) FinalizePots() []PerHoneypot {
	out := make([]PerHoneypot, len(p.sessions))
	for i := range out {
		out[i] = PerHoneypot{
			Sessions: p.sessions[i],
			Clients:  p.Clients.perPot[i],
			Hashes:   p.Hashes.perPot[i],
		}
	}
	return out
}

// Add folds one record into every accumulator, exactly as the
// incremental engine does. day is the record's day bucket (store.Day).
// The client and country tables both cover every category, so the
// country table already holds (or could not locate) any IP the client
// table has seen: an IP is located once, by its first record.
func (p *Partials) Add(r *honeypot.SessionRecord, day int) {
	c := Classify(r)
	p.Cats.add(r, c)
	countPot(p.sessions, r.HoneypotID)
	first := p.Clients.add(r, day, c)
	if first && p.Countries != nil {
		p.Countries.Add(r)
	}
	p.Hashes.Add(r, day)
}

// Merge folds another bundle in. The two bundles must be shaped alike
// (same pot-table size, same country-table presence) — the merge
// coordinator validates shapes at install time. The source bundle's
// entries may be adopted by reference; do not reuse it afterwards.
func (p *Partials) Merge(q *Partials) error {
	if p.NumPots() != q.NumPots() {
		return fmt.Errorf("analysis: merging partials sized for %d pots into %d", q.NumPots(), p.NumPots())
	}
	if (p.Countries == nil) != (q.Countries == nil) {
		return fmt.Errorf("analysis: merging partials with mismatched country tables")
	}
	p.Cats.Merge(q.Cats)
	for i, n := range q.sessions {
		p.sessions[i] += n
	}
	p.Clients.Merge(q.Clients)
	if p.Countries != nil {
		p.Countries.Merge(q.Countries)
	}
	p.Hashes.Merge(q.Hashes)
	return nil
}

// Encode appends the bundle's complete state to b. The bytes are a
// deterministic function of the accumulated state: every map is walked
// in sorted key order.
func (p *Partials) Encode(b *wire.Builder) {
	b.Grow(p.encodedSizeHint())
	b.Byte(partialsWireVersion)
	b.Bool(p.Countries != nil)
	encodeCats(b, p.Cats)
	encodePotSessions(b, p.sessions)
	encodeClients(b, p.Clients)
	if p.Countries != nil {
		encodeCountries(b, p.Countries)
	}
	encodeHashes(b, p.Hashes)
}

// encodedSizeHint is how many bytes Encode is about to append, from the
// table lengths: exact but for the IPs inside the country and hash sets,
// priced at the longest IPv4 text rather than walked. A bundle is
// megabytes at fleet scale; growing into it by append copies it twice
// over.
func (p *Partials) encodedSizeHint() int {
	const setIP = 4 + len("255.255.255.255")
	n := 64 + 16*int(NumCategories) + 8*len(p.sessions)
	for ip, acc := range p.Clients.m {
		n += 4 + len(ip) + 8 + 4 + 8*acc.pots.len() + 4 + 8*acc.days.len() + 1
	}
	if p.Countries != nil {
		for c, ips := range p.Countries.m {
			n += 4 + len(c) + 4 + setIP*len(ips)
		}
	}
	for h, acc := range p.Hashes.m {
		n += 4 + len(h) + 8 + 4 + setIP*len(acc.ips) + 4 + 8*acc.days.len() + 4 + 8*acc.pots.len()
	}
	return n
}

// DecodePartials reads one bundle encoded by Encode. The decoded bundle
// is freshly allocated and shares nothing with the reader's buffer
// owner, so it is safe to merge and mutate.
func DecodePartials(r *wire.Reader) (*Partials, error) {
	if v := r.Byte(); r.Err() == nil && v != partialsWireVersion {
		return nil, fmt.Errorf("analysis: partials wire version %d, want %d", v, partialsWireVersion)
	}
	hasCountries := r.Bool()
	p := &Partials{Cats: decodeCats(r), sessions: decodePotSessions(r)}
	p.Clients = decodeClients(r, len(p.sessions))
	if hasCountries {
		p.Countries = decodeCountries(r)
	}
	p.Hashes = decodeHashes(r, len(p.sessions))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("analysis: decoding partials: %w", err)
	}
	return p, nil
}

// ---- per-accumulator encoders ----
//
// Counts are written as uint32 length prefixes followed by entries in
// sorted key order; int-valued counters ride as two's-complement uint64
// so negative day buckets (records before the epoch) survive.

func encodeCats(b *wire.Builder, a *CategoryAccum) {
	b.Uint32(uint32(NumCategories))
	for c := 0; c < int(NumCategories); c++ {
		b.Uint64(uint64(int64(a.Counts[c])))
		b.Uint64(uint64(int64(a.SSHCounts[c])))
	}
	b.Uint64(uint64(int64(a.SSH)))
}

func decodeCats(r *wire.Reader) *CategoryAccum {
	a := new(CategoryAccum)
	if n := r.Uint32(); r.Err() == nil && n != uint32(NumCategories) {
		r.SetErrf("partials category count %d, want %d", n, NumCategories)
		return a
	}
	for c := 0; c < int(NumCategories); c++ {
		a.Counts[c] = int(int64(r.Uint64()))
		a.SSHCounts[c] = int(int64(r.Uint64()))
	}
	a.SSH = int(int64(r.Uint64()))
	return a
}

func encodePotSessions(b *wire.Builder, sessions []int) {
	b.Uint32(uint32(len(sessions)))
	for _, n := range sessions {
		b.Uint64(uint64(int64(n)))
	}
}

func decodePotSessions(r *wire.Reader) []int {
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 8) {
		r.SetErrf("partials pot table truncated")
		return nil
	}
	sessions := make([]int, n)
	for i := range sessions {
		sessions[i] = int(int64(r.Uint64()))
	}
	return sessions
}

func encodeClients(b *wire.Builder, a *ClientAccum) {
	ips := a.sortedIPs()
	b.Uint32(uint32(len(ips)))
	for _, ip := range ips {
		acc := a.m[ip]
		b.Text(ip)
		b.Uint64(uint64(int64(acc.sessions)))
		encodeIntSet(b, acc.pots)
		encodeIntSet(b, acc.days)
		b.Byte(acc.cats)
	}
}

// decodeClients reads the client table of a bundle of numPots pots:
// always the all-categories table, the only one a bundle holds.
func decodeClients(r *wire.Reader, numPots int) *ClientAccum {
	a := NewClientAccum(-1)
	a.perPot = make([]int, numPots)
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 4+8+4+4+1) {
		r.SetErrf("partials client table truncated")
		return a
	}
	var scratch intSet
	count := potCounter(a.perPot)
	prev := ""
	for i := uint32(0); i < n; i++ {
		ip := r.Text()
		if i > 0 && ip <= prev {
			r.SetErrf("partials client key %q not ascending", ip)
			return a
		}
		prev = ip
		acc := &clientAcc{
			sessions: int(int64(r.Uint64())),
			pots:     decodeIntSet(r, &scratch),
			days:     decodeIntSet(r, &scratch),
			cats:     r.Byte(),
		}
		acc.pots.each(count)
		a.m[ip] = acc
	}
	return a
}

func encodeCountries(b *wire.Builder, a *CountryAccum) {
	countries := sortedStringKeys(len(a.m), func(f func(string)) {
		for c := range a.m {
			f(c)
		}
	})
	b.Uint32(uint32(len(countries)))
	for _, c := range countries {
		b.Text(c)
		encodeStringSet(b, a.m[c])
	}
}

func decodeCountries(r *wire.Reader) *CountryAccum {
	// No registry: a decoded accumulator only merges and finalizes;
	// Add (which needs one to locate IPs) stays on the shard side.
	a := &CountryAccum{m: make(map[string]map[string]struct{})}
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 4+4) {
		r.SetErrf("partials country table truncated")
		return a
	}
	prev := ""
	for i := uint32(0); i < n; i++ {
		c := r.Text()
		if i > 0 && c <= prev {
			r.SetErrf("partials country key %q not ascending", c)
			return a
		}
		prev = c
		a.m[c] = decodeStringSet(r)
	}
	return a
}

func encodeHashes(b *wire.Builder, a *HashAccum) {
	hashes := a.sortedHashes()
	b.Uint32(uint32(len(hashes)))
	for _, h := range hashes {
		acc := a.m[h]
		b.Text(h)
		b.Uint64(uint64(int64(acc.sessions)))
		encodeStringSet(b, acc.ips)
		encodeIntSet(b, acc.days)
		encodeIntSet(b, acc.pots)
	}
}

func decodeHashes(r *wire.Reader, numPots int) *HashAccum {
	a := NewHashAccum()
	a.perPot = make([]int, numPots)
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 4+8+4+4+4) {
		r.SetErrf("partials hash table truncated")
		return a
	}
	var scratch intSet
	count := potCounter(a.perPot)
	prev := ""
	for i := uint32(0); i < n; i++ {
		h := r.Text()
		if i > 0 && h <= prev {
			r.SetErrf("partials hash key %q not ascending", h)
			return a
		}
		prev = h
		acc := &hashAcc{
			sessions: int(int64(r.Uint64())),
			ips:      decodeStringSet(r),
			days:     decodeIntSet(r, &scratch),
			pots:     decodeIntSet(r, &scratch),
		}
		acc.pots.each(count)
		a.m[h] = acc
	}
	return a
}

// ---- set helpers ----

func encodeStringSet(b *wire.Builder, set map[string]struct{}) {
	keys := sortedStringKeys(len(set), func(f func(string)) {
		for k := range set {
			f(k)
		}
	})
	b.Uint32(uint32(len(keys)))
	for _, k := range keys {
		b.Text(k)
	}
}

func decodeStringSet(r *wire.Reader) map[string]struct{} {
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 4) {
		r.SetErrf("partials string set truncated")
		return map[string]struct{}{}
	}
	set := make(map[string]struct{}, n)
	prev := ""
	for i := uint32(0); i < n; i++ {
		k := r.Text()
		if i > 0 && k <= prev {
			r.SetErrf("partials string set key %q not ascending", k)
			return set
		}
		prev = k
		set[k] = struct{}{}
	}
	return set
}

func encodeIntSet(b *wire.Builder, set intSet) {
	b.Uint32(uint32(set.len()))
	set.each(func(k int) { b.Uint64(uint64(int64(k))) })
}

// decodeIntSet reads one set, sized exactly; scratch is where it is
// assembled and may be handed to the next call.
func decodeIntSet(r *wire.Reader, scratch *intSet) intSet {
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 8) {
		r.SetErrf("partials int set truncated")
		return nil
	}
	set := (*scratch)[:0]
	prev := 0
	for i := uint32(0); i < n; i++ {
		k := int(int64(r.Uint64()))
		if i > 0 && k <= prev {
			r.SetErrf("partials int set key %d not ascending", k)
			return nil
		}
		prev = k
		// Ascending members: k is in the last chunk or opens the next.
		if last := len(set) - 1; last >= 0 && set[last].key == k>>6 {
			set[last].bits |= 1 << (uint(k) & 63)
		} else {
			set = append(set, intChunk{key: k >> 6, bits: 1 << (uint(k) & 63)})
		}
	}
	*scratch = set
	return append(intSet(nil), set...)
}

// sortedStringKeys collects keys via the visit callback and returns
// them sorted — the one place map iteration order is laundered out of
// the encoding.
func sortedStringKeys(n int, visit func(func(string))) []string {
	keys := make([]string, 0, n)
	visit(func(k string) { keys = append(keys, k) })
	sort.Strings(keys)
	return keys
}

// fitsRemaining bounds a decoded count before allocating: n entries of
// at least minLen bytes each must fit in the reader's remaining buffer.
func fitsRemaining(r *wire.Reader, n uint32, minLen int) bool {
	return uint64(n)*uint64(minLen) <= uint64(r.Remaining())
}
