package analysis

import (
	"sort"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/shell"
	"honeyfarm/internal/stats"
	"honeyfarm/internal/store"
)

// CategoryShares is Table 1: the fraction of sessions per category,
// overall and per protocol, plus each category's protocol split.
type CategoryShares struct {
	Total int
	// Overall[c] is the fraction of all sessions in category c.
	Overall [NumCategories]float64
	// SSHShareOfCategory[c] is, within category c, the fraction using SSH
	// (Table 1's second row; Telnet is the complement).
	SSHShareOfCategory [NumCategories]float64
	// SSHTotal is the fraction of all sessions using SSH.
	SSHTotal float64
}

// ComputeCategoryShares reproduces Table 1 from a dataset. The scan
// fans out over record ranges into CategoryAccum partials — the same
// fold internal/query runs incrementally.
func ComputeCategoryShares(s *store.Store) CategoryShares {
	acc := mapReduce(s.Records(),
		func(recs []*honeypot.SessionRecord) *CategoryAccum {
			a := new(CategoryAccum)
			for _, r := range recs {
				a.Add(r)
			}
			return a
		},
		func(dst, src *CategoryAccum) *CategoryAccum {
			dst.Merge(src)
			return dst
		})
	return acc.Finalize()
}

// Counted is a generic (value, count) pair for top-N tables.
type Counted struct {
	Value string
	Count int
}

func topN(counts map[string]int, n int) []Counted {
	out := make([]Counted, 0, len(counts))
	for v, c := range counts {
		out = append(out, Counted{v, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopPasswords reproduces Table 2: the most-used successful passwords.
func TopPasswords(s *store.Store, n int) []Counted {
	counts := make(map[string]int)
	for _, r := range s.Records() {
		for _, l := range r.Logins {
			if l.Success {
				counts[l.Password]++
			}
		}
	}
	return topN(counts, n)
}

// TopCommands reproduces Table 3: recorded command strings split at
// command separators (';' and '|'), ranked by occurrence.
func TopCommands(s *store.Store, n int) []Counted {
	counts := make(map[string]int)
	for _, r := range s.Records() {
		for _, c := range r.Commands {
			for _, seg := range shell.SplitSegments(c.Input) {
				counts[seg]++
			}
		}
	}
	return topN(counts, n)
}

// TopClientVersions ranks the SSH client identification strings the
// honeypots record during the handshake (Section 4); fingerprinting
// these strings is how related work (Ghiëtte et al.) identified 49
// distinct attack toolchains.
func TopClientVersions(s *store.Store, n int) []Counted {
	counts := make(map[string]int)
	for _, r := range s.Records() {
		if r.ClientVersion != "" {
			counts[r.ClientVersion]++
		}
	}
	return topN(counts, n)
}

// PerHoneypot aggregates one honeypot's totals, the basis of Figures 2,
// 14, 18 and 19.
type PerHoneypot struct {
	Sessions int
	Clients  int // unique client IPs
	Hashes   int // unique file hashes
}

// ComputePerHoneypot returns per-honeypot totals indexed by honeypot ID.
// numPots sizes the result; IDs outside [0, numPots) are ignored. The
// scan fans out over record ranges into PotAccum partials; session
// counts sum and client/hash sets union, so the reduce is
// order-insensitive.
func ComputePerHoneypot(s *store.Store, numPots int) []PerHoneypot {
	acc := mapReduce(s.Records(),
		func(recs []*honeypot.SessionRecord) *PotAccum {
			a := NewPotAccum(numPots)
			for _, r := range recs {
				a.Add(r)
			}
			return a
		},
		func(dst, src *PotAccum) *PotAccum {
			dst.Merge(src)
			return dst
		})
	return acc.Finalize()
}

// SessionRank returns the descending session-count curve of Figure 2.
func SessionRank(per []PerHoneypot) []float64 {
	vals := make([]float64, len(per))
	for i, p := range per {
		vals[i] = float64(p.Sessions)
	}
	return stats.RankCurve(vals)
}

// DailyMatrix builds values[day][pot] = #sessions, optionally filtered
// to one category (pass -1 for all), the input to Figures 3, 4, 8, 9.
func DailyMatrix(s *store.Store, numPots int, cat int) [][]float64 {
	days := s.NumDays()
	if days <= 0 {
		return nil
	}
	m := make([][]float64, days)
	for i := range m {
		m[i] = make([]float64, numPots)
	}
	for _, r := range s.Records() {
		if cat >= 0 && Classify(r) != Category(cat) {
			continue
		}
		d := s.Day(r.Start)
		if d < 0 || d >= days || r.HoneypotID < 0 || r.HoneypotID >= numPots {
			continue
		}
		m[d][r.HoneypotID]++
	}
	return m
}

// TopPotsByActivity returns the IDs of the top fraction (e.g. 0.05 for
// the paper's "top 5% of honeypots") by total session count. Ties break
// toward the lower honeypot ID: sort.Slice is unstable, so without the
// tie-break equally-active honeypots would reorder run to run.
func TopPotsByActivity(per []PerHoneypot, fraction float64) []int {
	type kv struct{ id, sessions int }
	all := make([]kv, len(per))
	for i, p := range per {
		all[i] = kv{i, p.Sessions}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].sessions != all[j].sessions {
			return all[i].sessions > all[j].sessions
		}
		return all[i].id < all[j].id
	})
	n := int(float64(len(per))*fraction + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(all) {
		n = len(all)
	}
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = all[i].id
	}
	return ids
}

// FilterMatrixPots restricts a [day][pot] matrix to the given pot IDs.
func FilterMatrixPots(m [][]float64, ids []int) [][]float64 {
	out := make([][]float64, len(m))
	for d := range m {
		row := make([]float64, len(ids))
		for i, id := range ids {
			if id < len(m[d]) {
				row[i] = m[d][id]
			}
		}
		out[d] = row
	}
	return out
}

// PercentileSeries computes the median/IQR/5-95 bands per day from a
// [day][pot] matrix — the visualization of Figures 3, 4, 8 and 9.
func PercentileSeries(m [][]float64) stats.Series {
	return stats.NewSeries(m)
}

// CategoryTimeline is Figure 6: per-day session counts by category plus
// the total.
type CategoryTimeline struct {
	// PerDay[d][c] is the number of category-c sessions on day d.
	PerDay [][NumCategories]int
	// Total[d] is the day's session count.
	Total []int
}

// ComputeCategoryTimeline builds Figure 6's series.
func ComputeCategoryTimeline(s *store.Store) CategoryTimeline {
	days := s.NumDays()
	tl := CategoryTimeline{
		PerDay: make([][NumCategories]int, days),
		Total:  make([]int, days),
	}
	for _, r := range s.Records() {
		d := s.Day(r.Start)
		if d < 0 || d >= days {
			continue
		}
		tl.PerDay[d][Classify(r)]++
		tl.Total[d]++
	}
	return tl
}

// DurationECDFs returns the per-category session-duration distributions
// of Figure 7, in seconds.
func DurationECDFs(s *store.Store) [NumCategories]*stats.ECDF {
	var out [NumCategories]*stats.ECDF
	for c := range out {
		out[c] = new(stats.ECDF)
	}
	for _, r := range s.Records() {
		d := r.Duration()
		if d < 0 {
			continue
		}
		out[Classify(r)].Add(d.Seconds())
	}
	for c := range out {
		out[c].Sort()
	}
	return out
}
