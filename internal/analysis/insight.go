package analysis

import (
	"sort"
	"time"

	"honeyfarm/internal/store"
)

// FirstSeenLeaders quantifies the paper's early-detection claim
// (Section 8.4, Conclusion): "the honeypots that collect the highest
// number of file hashes are typically the ones that observe the hashes
// earlier than the rest". For every hash it finds the honeypot that saw
// it first, counts first-sightings per honeypot, and reports the overlap
// between the top-k honeypots by unique-hash count and the top-k by
// first-sightings.
type FirstSeenLeaders struct {
	// FirstSeenCount[pot] is the number of hashes that pot observed
	// before any other honeypot.
	FirstSeenCount []int
	// TopOverlap is |top-k by hashes ∩ top-k by first-sightings| / k.
	TopOverlap float64
	// K is the comparison set size.
	K int
}

// ComputeFirstSeenLeaders scans the dataset once.
func ComputeFirstSeenLeaders(s *store.Store, numPots, k int) FirstSeenLeaders {
	type first struct {
		t   time.Time
		pot int
	}
	firsts := make(map[string]first)
	hashesPerPot := make([]map[string]struct{}, numPots)
	for i := range hashesPerPot {
		hashesPerPot[i] = make(map[string]struct{})
	}
	for _, r := range s.Records() {
		if r.HoneypotID < 0 || r.HoneypotID >= numPots {
			continue
		}
		for _, f := range r.Files {
			if cur, ok := firsts[f.Hash]; !ok || r.Start.Before(cur.t) {
				firsts[f.Hash] = first{t: r.Start, pot: r.HoneypotID}
			}
			hashesPerPot[r.HoneypotID][f.Hash] = struct{}{}
		}
	}
	out := FirstSeenLeaders{FirstSeenCount: make([]int, numPots), K: k}
	for _, f := range firsts {
		out.FirstSeenCount[f.pot]++
	}
	topBy := func(score func(int) int) map[int]bool {
		ids := make([]int, numPots)
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, b int) bool { return score(ids[a]) > score(ids[b]) })
		set := make(map[int]bool, k)
		for i := 0; i < k && i < numPots; i++ {
			set[ids[i]] = true
		}
		return set
	}
	byHashes := topBy(func(i int) int { return len(hashesPerPot[i]) })
	byFirst := topBy(func(i int) int { return out.FirstSeenCount[i] })
	overlap := 0
	for id := range byHashes {
		if byFirst[id] {
			overlap++
		}
	}
	if k > 0 {
		out.TopOverlap = float64(overlap) / float64(min(k, numPots))
	}
	return out
}

// FederationGain quantifies the Discussion's "Federated Honeyfarms"
// proposal: split the farm into k independent sub-farms and measure how
// much hash coverage each would have alone versus federated. The paper
// argues sharing "will substantially improve visibility"; this makes the
// claim measurable.
type FederationGain struct {
	Parts int
	// UnionHashes is the full farm's unique hash count.
	UnionHashes int
	// MeanPartShare is the average fraction of the union a single
	// sub-farm observes on its own.
	MeanPartShare float64
	// MinPartShare / MaxPartShare bound the per-sub-farm coverage.
	MinPartShare float64
	MaxPartShare float64
	// MeanEarliestLagDays is the average delay (in days) between the
	// union's first sighting of a hash and a lone sub-farm's first
	// sighting, over hashes the sub-farm eventually sees.
	MeanEarliestLagDays float64
}

// ComputeFederationGain partitions honeypots round-robin into parts
// sub-farms.
func ComputeFederationGain(s *store.Store, numPots, parts int) FederationGain {
	if parts < 1 {
		parts = 1
	}
	union := make(map[string]int) // hash -> first day (union)
	partHashes := make([]map[string]int, parts)
	for i := range partHashes {
		partHashes[i] = make(map[string]int)
	}
	for _, r := range s.Records() {
		if r.HoneypotID < 0 || r.HoneypotID >= numPots {
			continue
		}
		p := r.HoneypotID % parts
		day := s.Day(r.Start)
		for _, f := range r.Files {
			if d, ok := union[f.Hash]; !ok || day < d {
				union[f.Hash] = day
			}
			if d, ok := partHashes[p][f.Hash]; !ok || day < d {
				partHashes[p][f.Hash] = day
			}
		}
	}
	out := FederationGain{Parts: parts, UnionHashes: len(union), MinPartShare: 1}
	if len(union) == 0 {
		out.MinPartShare = 0
		return out
	}
	var lagSum float64
	var lagN int
	for _, ph := range partHashes {
		share := float64(len(ph)) / float64(len(union))
		out.MeanPartShare += share / float64(parts)
		if share < out.MinPartShare {
			out.MinPartShare = share
		}
		if share > out.MaxPartShare {
			out.MaxPartShare = share
		}
		for h, day := range ph {
			lagSum += float64(day - union[h])
			lagN++
		}
	}
	if lagN > 0 {
		out.MeanEarliestLagDays = lagSum / float64(lagN)
	}
	return out
}

// BlockingImpact evaluates the Discussion's complaint that long-lived
// campaigns running on a handful of IPs go unblocked for months: if
// every client IP of a small long campaign were blocked graceDays after
// the campaign's first sighting, how many of its sessions would have
// been prevented?
type BlockingImpact struct {
	// Campaigns is the number of long-lived small-IP campaigns found
	// (≥ minDays active days, ≤ maxIPs client IPs).
	Campaigns int
	// TotalSessions across those campaigns.
	TotalSessions int
	// PreventableSessions occur after the block would have landed.
	PreventableSessions int
	// PreventableShare is Preventable/Total.
	PreventableShare float64
}

// ComputeBlockingImpact scans the dataset for the what-if.
func ComputeBlockingImpact(s *store.Store, hs []HashStat, minDays, maxIPs, graceDays int) BlockingImpact {
	targets := make(map[string]int) // hash -> block day
	for _, h := range hs {
		if h.Days >= minDays && h.ClientIPs <= maxIPs {
			targets[h.Hash] = h.FirstDay + graceDays
		}
	}
	out := BlockingImpact{Campaigns: len(targets)}
	if len(targets) == 0 {
		return out
	}
	for _, r := range s.Records() {
		day := s.Day(r.Start)
		counted := false
		for _, f := range r.Files {
			blockDay, ok := targets[f.Hash]
			if !ok || counted {
				continue
			}
			counted = true
			out.TotalSessions++
			if day >= blockDay {
				out.PreventableSessions++
			}
		}
	}
	if out.TotalSessions > 0 {
		out.PreventableShare = float64(out.PreventableSessions) / float64(out.TotalSessions)
	}
	return out
}
