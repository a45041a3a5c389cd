package analysis

// Mergeable partial aggregates. Each accumulator is a pure fold over
// session records — sums, set unions, min/max and bitmask-or — with a
// deterministic Finalize that sorts every map-keyed output. The batch
// functions in this package run them under mapReduce; internal/query's
// incremental engine feeds them record batches as the farm runs and
// materializes snapshots from the same Finalize calls — the client
// table through Head, its first rows, and the hash table through Len
// alone. Because both paths fold the same operations and finalize
// identically, an incremental snapshot over the first N records of a
// stream is byte-identical (after JSON encoding) to the batch
// computation over those records — the equivalence the live query
// engine pins with a property test.

import (
	"sort"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
)

// CategoryAccum accumulates Table 1's category × protocol counts.
type CategoryAccum struct {
	Counts    [NumCategories]int
	SSHCounts [NumCategories]int
	SSH       int
}

// Add folds one record in.
func (a *CategoryAccum) Add(r *honeypot.SessionRecord) { a.add(r, Classify(r)) }

// add folds in one record already classified as c.
func (a *CategoryAccum) add(r *honeypot.SessionRecord, c Category) {
	a.Counts[c]++
	if r.Protocol == honeypot.SSH {
		a.SSHCounts[c]++
		a.SSH++
	}
}

// Merge folds another accumulator in.
func (a *CategoryAccum) Merge(b *CategoryAccum) {
	for c := 0; c < int(NumCategories); c++ {
		a.Counts[c] += b.Counts[c]
		a.SSHCounts[c] += b.SSHCounts[c]
	}
	a.SSH += b.SSH
}

// Finalize renders the accumulated counts as Table 1's shares.
func (a *CategoryAccum) Finalize() CategoryShares {
	var out CategoryShares
	total := 0
	for _, n := range a.Counts {
		total += n
	}
	out.Total = total
	if total == 0 {
		return out
	}
	for c := 0; c < int(NumCategories); c++ {
		out.Overall[c] = float64(a.Counts[c]) / float64(total)
		if a.Counts[c] > 0 {
			out.SSHShareOfCategory[c] = float64(a.SSHCounts[c]) / float64(a.Counts[c])
		}
	}
	out.SSHTotal = float64(a.SSH) / float64(total)
	return out
}

// PotAccum accumulates per-honeypot totals (Figures 2, 14, 18, 19) for
// the batch scan. IDs outside [0, numPots) are ignored. A Partials
// bundle does not hold one: its client and hash tables already know
// which pots each row touched and count per pot as they go
// (FinalizePots), which leaves this fold as the reference that shares
// no code with those counters.
type PotAccum struct {
	sessions []int
	clients  []map[string]struct{}
	hashes   []map[string]struct{}
}

// NewPotAccum creates an accumulator sized for numPots honeypots.
func NewPotAccum(numPots int) *PotAccum {
	a := &PotAccum{
		sessions: make([]int, numPots),
		clients:  make([]map[string]struct{}, numPots),
		hashes:   make([]map[string]struct{}, numPots),
	}
	for i := 0; i < numPots; i++ {
		a.clients[i] = make(map[string]struct{})
		a.hashes[i] = make(map[string]struct{})
	}
	return a
}

// Add folds one record in.
func (a *PotAccum) Add(r *honeypot.SessionRecord) {
	id := r.HoneypotID
	if id < 0 || id >= len(a.sessions) {
		return
	}
	a.sessions[id]++
	a.clients[id][r.ClientIP] = struct{}{}
	for _, f := range r.Files {
		a.hashes[id][f.Hash] = struct{}{}
	}
}

// Merge folds another accumulator (of the same size) in.
func (a *PotAccum) Merge(b *PotAccum) {
	for i := range a.sessions {
		a.sessions[i] += b.sessions[i]
		unionInto(a.clients[i], b.clients[i])
		unionInto(a.hashes[i], b.hashes[i])
	}
}

// Finalize renders the per-honeypot table.
func (a *PotAccum) Finalize() []PerHoneypot {
	out := make([]PerHoneypot, len(a.sessions))
	for i := range out {
		out[i] = PerHoneypot{
			Sessions: a.sessions[i],
			Clients:  len(a.clients[i]),
			Hashes:   len(a.hashes[i]),
		}
	}
	return out
}

// ClientAccum accumulates per-client-IP stats. cat restricts to one
// category (-1 for all), mirroring ComputeClientStats.
//
// head is what Head serves from: the table's smallest IPs, ascending,
// at most rows of them, rows being the n of the last Head call. The
// first Head call builds it; from then on the two paths that bring an
// IP the table has not seen (Add, and Merge adopting an entry) keep it,
// so a head costs O(log rows) per new client and nothing per changed
// one. Until the first Head call rows is 0 and nothing is kept: a
// bundle that is only merged or encoded pays nothing.
//
// perPot, set only on a Partials bundle's table, counts for each pot
// the rows whose pot set holds it: every path that puts a pot in a
// row's set (Add, Merge's unions and adoptions, the wire decoder)
// counts the bits that are new to the table.
type ClientAccum struct {
	cat    int
	m      map[string]*clientAcc
	rows   int
	head   []string
	perPot []int
}

// NewClientAccum creates a client accumulator; pass cat = -1 for all
// categories.
func NewClientAccum(cat int) *ClientAccum {
	return &ClientAccum{cat: cat, m: make(map[string]*clientAcc)}
}

// admit takes ip, new to the table, into head if it is among the rows
// smallest.
func (a *ClientAccum) admit(ip string) {
	if n := len(a.head); a.rows == 0 || n == a.rows && ip > a.head[n-1] {
		return
	}
	i := sort.SearchStrings(a.head, ip)
	if len(a.head) < a.rows {
		a.head = append(a.head, "")
	}
	copy(a.head[i+1:], a.head[i:])
	a.head[i] = ip
}

// Add folds one record in and reports whether it was the first the
// accumulator kept for its client IP. day is the record's day bucket
// (store.Day).
func (a *ClientAccum) Add(r *honeypot.SessionRecord, day int) (first bool) {
	return a.add(r, day, Classify(r))
}

// add is Add for a record already classified as c.
func (a *ClientAccum) add(r *honeypot.SessionRecord, day int, c Category) (first bool) {
	if a.cat >= 0 && c != Category(a.cat) {
		return false
	}
	acc := a.m[r.ClientIP]
	if acc == nil {
		first = true
		acc = new(clientAcc)
		a.m[r.ClientIP] = acc
		a.admit(r.ClientIP)
	}
	acc.sessions++
	if acc.pots.add(r.HoneypotID) {
		countPot(a.perPot, r.HoneypotID)
	}
	acc.days.add(day)
	acc.cats |= 1 << c
	return first
}

// Merge folds another accumulator in. The source accumulator's entries
// may be adopted by reference; do not reuse it afterwards.
func (a *ClientAccum) Merge(b *ClientAccum) {
	count := potCounter(a.perPot)
	for ip, sa := range b.m {
		da := a.m[ip]
		if da == nil {
			a.m[ip] = sa
			a.admit(ip)
			if count != nil {
				sa.pots.each(count)
			}
			continue
		}
		da.sessions += sa.sessions
		da.pots.union(sa.pots, count)
		da.days.union(sa.days, nil)
		da.cats |= sa.cats
	}
}

// Len returns the number of distinct client IPs accumulated.
func (a *ClientAccum) Len() int { return len(a.m) }

// Finalize renders the per-client table, sorted by IP.
func (a *ClientAccum) Finalize() []ClientStat {
	ips := a.sortedIPs()
	out := make([]ClientStat, len(ips))
	for i, ip := range ips {
		out[i] = a.row(ip)
	}
	return out
}

// Head renders the first n rows of the table Finalize would: a fresh
// slice of min(n, Len()) rows. A call with another n than the previous
// call's rebuilds the head from every entry; with the same n it costs
// n map lookups.
func (a *ClientAccum) Head(n int) []ClientStat {
	if n != a.rows {
		a.rows, a.head = n, make([]string, 0, n)
		for ip := range a.m {
			a.admit(ip)
		}
	}
	out := make([]ClientStat, len(a.head))
	for i, ip := range a.head {
		out[i] = a.row(ip)
	}
	return out
}

func (a *ClientAccum) row(ip string) ClientStat {
	acc := a.m[ip]
	return ClientStat{
		IP: ip, Sessions: acc.sessions,
		Honeypots: acc.pots.len(), ActiveDays: acc.days.len(),
		Categories: acc.cats,
	}
}

// sortedIPs returns every IP in the table, ascending.
func (a *ClientAccum) sortedIPs() []string {
	return sortedStringKeys(len(a.m), func(f func(string)) {
		for ip := range a.m {
			f(ip)
		}
	})
}

// countPot counts one more row holding pot id; ids outside the table
// (and every id when there is no table) are ignored, PotAccum's rule.
func countPot(perPot []int, id int) {
	if uint(id) < uint(len(perPot)) {
		perPot[id]++
	}
}

// potCounter returns countPot bound to perPot, nil when there is no
// table to count into.
func potCounter(perPot []int) func(int) {
	if perPot == nil {
		return nil
	}
	return func(id int) { countPot(perPot, id) }
}

// CountryAccum accumulates unique client IPs per country (Figure
// 10/23). cats nil selects all categories.
type CountryAccum struct {
	reg  *geo.Registry
	cats map[Category]bool
	m    map[string]map[string]struct{}
}

// NewCountryAccum creates a country accumulator over the registry.
func NewCountryAccum(reg *geo.Registry, cats map[Category]bool) *CountryAccum {
	return &CountryAccum{reg: reg, cats: cats, m: make(map[string]map[string]struct{})}
}

// Add folds one record in; unparseable or unallocated IPs are skipped.
func (a *CountryAccum) Add(r *honeypot.SessionRecord) {
	if a.cats != nil && !a.cats[Classify(r)] {
		return
	}
	loc, ok := locate(a.reg, r.ClientIP)
	if !ok {
		return
	}
	set := a.m[loc.Country]
	if set == nil {
		set = make(map[string]struct{})
		a.m[loc.Country] = set
	}
	set[r.ClientIP] = struct{}{}
}

// Merge folds another accumulator in. The source accumulator's sets may
// be adopted by reference; do not reuse it afterwards.
func (a *CountryAccum) Merge(b *CountryAccum) {
	for country, set := range b.m {
		if d := a.m[country]; d != nil {
			unionInto(d, set)
		} else {
			a.m[country] = set
		}
	}
}

// Len returns the number of countries with at least one client.
func (a *CountryAccum) Len() int { return len(a.m) }

// Finalize renders the country table, sorted descending by client count
// with the country code as tie-break.
func (a *CountryAccum) Finalize() []CountryCount {
	out := make([]CountryCount, 0, len(a.m))
	for c, set := range a.m {
		out = append(out, CountryCount{Country: c, Clients: len(set)})
	}
	sortCountryCounts(out)
	return out
}

// HashAccum accumulates per-file-hash stats (Tables 4–6). perPot
// counts rows per pot as ClientAccum's does.
type HashAccum struct {
	m      map[string]*hashAcc
	perPot []int
}

// NewHashAccum creates a hash accumulator.
func NewHashAccum() *HashAccum {
	return &HashAccum{m: make(map[string]*hashAcc)}
}

// Add folds one record in. day is the record's day bucket. A session
// touching the same hash via several file events counts once per
// distinct hash, matching the batch scan.
func (a *HashAccum) Add(r *honeypot.SessionRecord, day int) {
files:
	for i, f := range r.Files {
		for _, g := range r.Files[:i] {
			if g.Hash == f.Hash {
				continue files
			}
		}
		acc := a.m[f.Hash]
		if acc == nil {
			acc = &hashAcc{ips: make(map[string]struct{})}
			a.m[f.Hash] = acc
		}
		acc.sessions++
		acc.ips[r.ClientIP] = struct{}{}
		acc.days.add(day)
		if acc.pots.add(r.HoneypotID) {
			countPot(a.perPot, r.HoneypotID)
		}
	}
}

// Merge folds another accumulator in. The source accumulator's entries
// may be adopted by reference; do not reuse it afterwards.
func (a *HashAccum) Merge(b *HashAccum) {
	count := potCounter(a.perPot)
	for h, sa := range b.m {
		da := a.m[h]
		if da == nil {
			a.m[h] = sa
			if count != nil {
				sa.pots.each(count)
			}
			continue
		}
		da.sessions += sa.sessions
		unionInto(da.ips, sa.ips)
		da.days.union(sa.days, nil)
		da.pots.union(sa.pots, count)
	}
}

// Len returns the number of distinct hashes accumulated.
func (a *HashAccum) Len() int { return len(a.m) }

// Finalize renders the hash table, sorted by hash. tag may be nil (tags
// become "unknown").
func (a *HashAccum) Finalize(tag Tagger) []HashStat {
	hashes := a.sortedHashes()
	out := make([]HashStat, len(hashes))
	for i, h := range hashes {
		acc := a.m[h]
		out[i] = HashStat{
			Hash:      h,
			Sessions:  acc.sessions,
			ClientIPs: len(acc.ips),
			Days:      acc.days.len(),
			Honeypots: acc.pots.len(),
			FirstDay:  acc.days.min(),
			LastDay:   acc.days.max(),
			Tag:       "unknown",
		}
		if tag != nil {
			out[i].Tag = tag(h)
		}
	}
	return out
}

// sortedHashes returns every hash in the table, ascending.
func (a *HashAccum) sortedHashes() []string {
	return sortedStringKeys(len(a.m), func(f func(string)) {
		for h := range a.m {
			f(h)
		}
	})
}
