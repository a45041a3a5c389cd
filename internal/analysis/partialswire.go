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
// peer speaking a different layout instead of misdecoding it.

import (
	"fmt"
	"sort"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/wire"
)

// partialsWireVersion tags the Partials wire layout. Bump on any change
// to the encoded field set so mixed-version fleets fail loudly.
const partialsWireVersion = 1

// Partials bundles one instance of every mergeable accumulator — the
// complete foldable state behind a query snapshot. The incremental
// engine folds records into a bundle; a shard serves its bundle over
// the wire; the merge coordinator folds decoded bundles together. All
// three paths share these methods, so the fold semantics cannot drift
// between single-node and distributed operation.
type Partials struct {
	// Cats is Table 1's category × protocol accumulator.
	Cats *CategoryAccum
	// Pots is the per-honeypot accumulator, sized for the full farm
	// (every shard sizes it identically so bundles merge index-aligned).
	Pots *PotAccum
	// Clients is the per-client-IP accumulator (all categories).
	Clients *ClientAccum
	// Countries is the per-country unique-client accumulator; nil when
	// the country table is disabled (no registry).
	Countries *CountryAccum
	// Hashes is the per-file-hash accumulator.
	Hashes *HashAccum
}

// NewPartials creates an empty bundle sized for numPots honeypots.
// reg resolves client IPs for the country table and may be nil when the
// bundle will only merge decoded peers (Add requires it to locate IPs);
// countries controls whether the country table exists at all — pass
// false to produce snapshots without one, matching an engine built
// without a registry.
func NewPartials(numPots int, reg *geo.Registry, countries bool) *Partials {
	p := &Partials{
		Cats:    new(CategoryAccum),
		Pots:    NewPotAccum(numPots),
		Clients: NewClientAccum(-1),
		Hashes:  NewHashAccum(),
	}
	if countries {
		p.Countries = NewCountryAccum(reg, nil)
	}
	return p
}

// NumPots returns the per-honeypot table size the bundle was built for.
func (p *Partials) NumPots() int { return len(p.Pots.sessions) }

// Add folds one record into every accumulator, exactly as the
// incremental engine does. day is the record's day bucket (store.Day).
// The client and country tables both cover every category, so the
// country table already holds (or could not locate) any IP the client
// table has seen: an IP is located once, by its first record.
func (p *Partials) Add(r *honeypot.SessionRecord, day int) {
	p.Cats.Add(r)
	p.Pots.Add(r)
	first := p.Clients.Add(r, day)
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
	p.Pots.Merge(q.Pots)
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
	b.Byte(partialsWireVersion)
	b.Bool(p.Countries != nil)
	encodeCats(b, p.Cats)
	encodePots(b, p.Pots)
	encodeClients(b, p.Clients)
	if p.Countries != nil {
		encodeCountries(b, p.Countries)
	}
	encodeHashes(b, p.Hashes)
}

// DecodePartials reads one bundle encoded by Encode. The decoded bundle
// is freshly allocated and shares nothing with the reader's buffer
// owner, so it is safe to merge and mutate.
func DecodePartials(r *wire.Reader) (*Partials, error) {
	if v := r.Byte(); r.Err() == nil && v != partialsWireVersion {
		return nil, fmt.Errorf("analysis: partials wire version %d, want %d", v, partialsWireVersion)
	}
	hasCountries := r.Bool()
	p := &Partials{
		Cats:    decodeCats(r),
		Pots:    decodePots(r),
		Clients: decodeClients(r),
	}
	if hasCountries {
		p.Countries = decodeCountries(r)
	}
	p.Hashes = decodeHashes(r)
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

func encodePots(b *wire.Builder, a *PotAccum) {
	b.Uint32(uint32(len(a.sessions)))
	for i := range a.sessions {
		b.Uint64(uint64(int64(a.sessions[i])))
		encodeStringSet(b, a.clients[i])
		encodeStringSet(b, a.hashes[i])
	}
}

func decodePots(r *wire.Reader) *PotAccum {
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 8+4+4) {
		r.SetErrf("partials pot table truncated")
		return NewPotAccum(0)
	}
	a := NewPotAccum(int(n))
	for i := range a.sessions {
		a.sessions[i] = int(int64(r.Uint64()))
		a.clients[i] = decodeStringSet(r)
		a.hashes[i] = decodeStringSet(r)
	}
	return a
}

func encodeClients(b *wire.Builder, a *ClientAccum) {
	b.Uint32(uint32(int32(a.cat)))
	ips := sortedStringKeys(len(a.m), func(f func(string)) {
		for ip := range a.m {
			f(ip)
		}
	})
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

func decodeClients(r *wire.Reader) *ClientAccum {
	a := NewClientAccum(int(int32(r.Uint32())))
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 4+8+4+4+1) {
		r.SetErrf("partials client table truncated")
		return a
	}
	a.touched = make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		ip := r.Text()
		if i > 0 && ip <= a.touched[i-1] {
			r.SetErrf("partials client key %q not ascending", ip)
			return a
		}
		a.m[ip] = &clientAcc{
			sessions: int(int64(r.Uint64())),
			pots:     decodeIntSet(r),
			days:     decodeIntSet(r),
			cats:     r.Byte(),
			touched:  true,
		}
		a.touched = append(a.touched, ip)
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
	hashes := sortedStringKeys(len(a.m), func(f func(string)) {
		for h := range a.m {
			f(h)
		}
	})
	b.Uint32(uint32(len(hashes)))
	for _, h := range hashes {
		acc := a.m[h]
		b.Text(h)
		b.Uint64(uint64(int64(acc.sessions)))
		encodeStringSet(b, acc.ips)
		encodeIntSet(b, acc.days)
		encodeIntSet(b, acc.pots)
		b.Uint64(uint64(int64(acc.first)))
		b.Uint64(uint64(int64(acc.last)))
	}
}

func decodeHashes(r *wire.Reader) *HashAccum {
	a := NewHashAccum()
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 4+8+4+4+4+8+8) {
		r.SetErrf("partials hash table truncated")
		return a
	}
	a.touched = make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		h := r.Text()
		if i > 0 && h <= a.touched[i-1] {
			r.SetErrf("partials hash key %q not ascending", h)
			return a
		}
		a.m[h] = &hashAcc{
			sessions: int(int64(r.Uint64())),
			ips:      decodeStringSet(r),
			days:     decodeIntSet(r),
			pots:     decodeIntSet(r),
			first:    int(int64(r.Uint64())),
			last:     int(int64(r.Uint64())),
			touched:  true,
		}
		a.touched = append(a.touched, h)
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

func encodeIntSet(b *wire.Builder, set map[int]struct{}) {
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	b.Uint32(uint32(len(keys)))
	for _, k := range keys {
		b.Uint64(uint64(int64(k)))
	}
}

func decodeIntSet(r *wire.Reader) map[int]struct{} {
	n := r.Uint32()
	if r.Err() != nil || !fitsRemaining(r, n, 8) {
		r.SetErrf("partials int set truncated")
		return map[int]struct{}{}
	}
	set := make(map[int]struct{}, n)
	prev := 0
	for i := uint32(0); i < n; i++ {
		k := int(int64(r.Uint64()))
		if i > 0 && k <= prev {
			r.SetErrf("partials int set key %d not ascending", k)
			return set
		}
		prev = k
		set[k] = struct{}{}
	}
	return set
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
