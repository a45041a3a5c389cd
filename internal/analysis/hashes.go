package analysis

import (
	"sort"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/stats"
	"honeyfarm/internal/store"
)

// Tagger labels a file hash with a campaign/malware family tag (the
// paper's VirusTotal/ClamAV cross-check: mirai, trojan, miner,
// malicious, suspicious, unknown).
type Tagger func(hash string) string

// HashStat aggregates one file hash across the dataset — one row of the
// paper's Tables 4, 5 and 6.
type HashStat struct {
	Hash      string
	Sessions  int
	ClientIPs int
	Days      int // distinct active days
	Honeypots int // distinct honeypots observing the hash
	FirstDay  int
	LastDay   int
	Tag       string
}

// hashAcc is one hash's partial aggregate; its first and last day are
// days.min() and days.max().
type hashAcc struct {
	sessions int
	ips      map[string]struct{}
	days     intSet
	pots     intSet
}

// ComputeHashStats scans the dataset once and aggregates every hash.
// tag may be nil (tags become "unknown"). The scan fans out over record
// ranges into HashAccum partials — counts sum, sets union in the
// reduce — and the output sort by hash pins the order.
func ComputeHashStats(s *store.Store, tag Tagger) []HashStat {
	acc := mapReduce(s.Records(),
		func(recs []*honeypot.SessionRecord) *HashAccum {
			a := NewHashAccum()
			for _, r := range recs {
				a.Add(r, s.Day(r.Start))
			}
			return a
		},
		func(dst, src *HashAccum) *HashAccum {
			dst.Merge(src)
			return dst
		})
	return acc.Finalize(tag)
}

// SortHashStats orders a copy of hs by the requested key, descending,
// with the hash string as tiebreaker for determinism.
func SortHashStats(hs []HashStat, key HashSortKey) []HashStat {
	out := append([]HashStat(nil), hs...)
	less := func(a, b HashStat) bool { return a.Hash < b.Hash }
	switch key {
	case BySessions:
		less = func(a, b HashStat) bool {
			if a.Sessions != b.Sessions {
				return a.Sessions > b.Sessions
			}
			return a.Hash < b.Hash
		}
	case ByClientIPs:
		less = func(a, b HashStat) bool {
			if a.ClientIPs != b.ClientIPs {
				return a.ClientIPs > b.ClientIPs
			}
			return a.Hash < b.Hash
		}
	case ByDays:
		less = func(a, b HashStat) bool {
			if a.Days != b.Days {
				return a.Days > b.Days
			}
			return a.Hash < b.Hash
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// HashSortKey selects the ranking for the three hash tables.
type HashSortKey uint8

// Sort keys for Tables 4, 5 and 6 respectively.
const (
	BySessions HashSortKey = iota
	ByClientIPs
	ByDays
)

// HashFreshness is Figure 17: per-day unique hash counts and the
// fraction fresh under three memories (all-time, 30 days, 7 days).
type HashFreshness struct {
	UniqueHashes []int
	FreshAll     []float64
	Fresh30      []float64
	Fresh7       []float64
}

// ComputeHashFreshness builds Figure 17's series.
func ComputeHashFreshness(s *store.Store) HashFreshness {
	days := s.NumDays()
	perDay := make([]map[string]struct{}, days)
	for i := range perDay {
		perDay[i] = make(map[string]struct{})
	}
	for _, r := range s.Records() {
		d := s.Day(r.Start)
		if d < 0 || d >= days {
			continue
		}
		for _, f := range r.Files {
			perDay[d][f.Hash] = struct{}{}
		}
	}
	hf := HashFreshness{
		UniqueHashes: make([]int, days),
		FreshAll:     make([]float64, days),
		Fresh30:      make([]float64, days),
		Fresh7:       make([]float64, days),
	}
	wAll := stats.NewFreshnessWindow(0)
	w30 := stats.NewFreshnessWindow(30)
	w7 := stats.NewFreshnessWindow(7)
	for d := 0; d < days; d++ {
		keys := make([]string, 0, len(perDay[d]))
		for h := range perDay[d] {
			keys = append(keys, h)
		}
		n := len(keys)
		hf.UniqueHashes[d] = n
		fa, f30, f7 := wAll.Advance(d, keys), w30.Advance(d, keys), w7.Advance(d, keys)
		if n > 0 {
			hf.FreshAll[d] = float64(fa) / float64(n)
			hf.Fresh30[d] = float64(f30) / float64(n)
			hf.Fresh7[d] = float64(f7) / float64(n)
		}
	}
	return hf
}

// HashClientRank is Figure 20: unique-client-IP counts per hash, in
// descending order (log-log rank plot).
func HashClientRank(hs []HashStat) []float64 {
	vals := make([]float64, len(hs))
	for i, h := range hs {
		vals[i] = float64(h.ClientIPs)
	}
	return stats.RankCurve(vals)
}

// ClientHashRank is Figure 21: unique-hash counts per client IP, in
// descending order.
func ClientHashRank(s *store.Store) []float64 {
	per := make(map[string]map[string]struct{})
	for _, r := range s.Records() {
		if len(r.Files) == 0 {
			continue
		}
		set := per[r.ClientIP]
		if set == nil {
			set = make(map[string]struct{})
			per[r.ClientIP] = set
		}
		for _, f := range r.Files {
			set[f.Hash] = struct{}{}
		}
	}
	vals := make([]float64, 0, len(per))
	for _, set := range per {
		vals = append(vals, float64(len(set)))
	}
	return stats.RankCurve(vals)
}

// CampaignDurationECDFs is Figure 22: the distribution of per-hash
// active-day counts, overall and per tag. Keys are "all" plus each tag
// present in the data.
func CampaignDurationECDFs(hs []HashStat) map[string]*stats.ECDF {
	out := map[string]*stats.ECDF{"all": new(stats.ECDF)}
	for _, h := range hs {
		out["all"].Add(float64(h.Days))
		e := out[h.Tag]
		if e == nil {
			e = new(stats.ECDF)
			out[h.Tag] = e
		}
		e.Add(float64(h.Days))
	}
	for _, e := range out {
		e.Sort()
	}
	return out
}

// HashesSeenByNPots summarizes hash visibility across honeypots: the
// fraction of hashes seen by exactly one honeypot, by more than 10, and
// by more than half of numPots (Section 8.4's headline numbers).
type HashVisibility struct {
	Total        int
	Single       float64 // seen at exactly 1 honeypot
	MoreThan10   float64
	MoreThanHalf int // absolute count, paper: "more than 200 hashes"
}

// ComputeHashVisibility summarizes Section 8.4.
func ComputeHashVisibility(hs []HashStat, numPots int) HashVisibility {
	v := HashVisibility{Total: len(hs)}
	if len(hs) == 0 {
		return v
	}
	single, gt10 := 0, 0
	for _, h := range hs {
		switch {
		case h.Honeypots == 1:
			single++
		}
		if h.Honeypots > 10 {
			gt10++
		}
		if h.Honeypots > numPots/2 {
			v.MoreThanHalf++
		}
	}
	v.Single = float64(single) / float64(len(hs))
	v.MoreThan10 = float64(gt10) / float64(len(hs))
	return v
}
