// Package workload generates the honeyfarm's traffic: a calibrated
// synthetic population of scanners, scouters, intruders and campaign
// botnets whose session stream reproduces the paper's published
// aggregate shapes — Table 1's category/protocol mix, Figure 2's
// heavy-tailed honeypot popularity (knee ≈ rank 11, top-10 ≈ 14%,
// max/min > 30×), the client-behavior distributions of Figures 11–16,
// and the hash-campaign structure of Section 8 — at a configurable
// scale. This package substitutes the honeyfarm operator's proprietary
// 402-million-session dataset (see DESIGN.md §2).
package workload

import (
	"math"
	"math/rand"
	"sort"
)

// VisibilityWeights returns per-rank honeypot popularity weights with
// Figure 2's shape: a steep head of ≈n/20 honeypots, a knee, then a
// long mild tail, with max/min ≈ 30× and top-10 ≈ 14% of the mass for
// n = 221.
func VisibilityWeights(n int) []float64 {
	if n <= 0 {
		return nil
	}
	head := n / 20
	if head < 2 {
		head = 2
	}
	if head >= n {
		head = n - 1
	}
	const (
		maxW     = 4.3
		kneeW    = 1.2
		tailTopW = 1.15
		minW     = 0.09
	)
	w := make([]float64, n)
	for r := 0; r < head; r++ {
		frac := float64(r) / float64(head)
		w[r] = maxW + (kneeW-maxW)*frac
	}
	for r := head; r < n; r++ {
		frac := float64(r-head) / math.Max(1, float64(n-head-1))
		w[r] = tailTopW + (minW-tailTopW)*frac
	}
	return w
}

// Permuted maps rank-ordered weights onto honeypot IDs using a seeded
// permutation, so that "top by sessions", "top by clients" and "top by
// hashes" can be different honeypots — one of the paper's central
// observations (Sections 4, 7.5, 8.4).
func Permuted(weights []float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, len(weights))
	for i, p := range rng.Perm(len(weights)) {
		out[p] = weights[i]
	}
	return out
}

// Sampler draws indexes proportionally to a weight vector from a
// cumulative table. A guide table maps each of 4·len(weights) equal
// slices of the total to the first index that slice can land on, so a
// draw starts its search a step or two from the answer instead of
// binary-searching the whole table.
type Sampler struct {
	cum   []float64
	guide []int32
	scale float64 // len(guide) / total
}

// NewSampler builds a sampler; weights must be non-negative with a
// positive sum.
func NewSampler(weights []float64) *Sampler {
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		acc += w
		cum[i] = acc
	}
	s := &Sampler{cum: cum}
	if acc > 0 {
		s.guide = make([]int32, 4*len(cum))
		s.scale = float64(len(s.guide)) / acc
		for b := range s.guide {
			s.guide[b] = int32(sort.SearchFloat64s(cum, float64(b)/s.scale))
		}
	}
	return s
}

// Sample draws one index: the first i with cum[i] ≥ x for a uniform x in
// [0, total), exactly as a binary search of cum would find it, from the
// same single draw.
func (s *Sampler) Sample(rng *rand.Rand) int {
	if len(s.cum) == 0 {
		return 0
	}
	total := s.cum[len(s.cum)-1]
	x := rng.Float64() * total
	if s.guide == nil {
		return sort.SearchFloat64s(s.cum, x)
	}
	i := int(s.guide[min(int(x*s.scale), len(s.guide)-1)])
	if i > 0 && s.cum[i-1] >= x {
		// Rounding put x below its slice's first index: search it exactly.
		return sort.SearchFloat64s(s.cum, x)
	}
	for i < len(s.cum)-1 && s.cum[i] < x {
		i++
	}
	return i
}

// SampleK draws k distinct indexes, weighted, by rejection (k should be
// much smaller than n; falls back to a full scan otherwise).
func (s *Sampler) SampleK(rng *rand.Rand, k int) []int {
	n := len(s.cum)
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := make(bitset, (n+63)/64)
	out := make([]int, 0, k)
	for tries := 0; len(out) < k && tries < 20*k+100; tries++ {
		i := s.Sample(rng)
		if seen.has(i) {
			continue
		}
		seen.set(i)
		out = append(out, i)
	}
	// Fill any shortfall deterministically.
	for i := 0; len(out) < k && i < n; i++ {
		if !seen.has(i) {
			seen.set(i)
			out = append(out, i)
		}
	}
	return out
}

// bitset is a set of small non-negative ints.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }

// FanoutDistribution draws how many distinct honeypots a client
// *aims* to contact. The population-level result matches Figure 12
// (>40% exactly one, ≈18% more than 10, ≈2% more than half the farm);
// the raw distribution oversamples wide scanners because campaign bots
// and ephemeral scan-and-go clients — generated separately — are
// narrow, and because a client only realizes its fan-out if it sends
// enough sessions.
func FanoutDistribution(rng *rand.Rand, numPots int) int {
	x := rng.Float64()
	switch {
	case x < 0.42:
		return 1
	case x < 0.53:
		return 2 + rng.Intn(4) // 2–5
	case x < 0.63:
		return 6 + rng.Intn(5) // 6–10
	case x < 0.97:
		// 11 .. numPots/2: log-uniform
		lo, hi := 11.0, math.Max(12, float64(numPots)/2)
		return int(lo * math.Pow(hi/lo, rng.Float64()))
	default:
		// > half the farm
		lo := float64(numPots)/2 + 1
		hi := float64(numPots)
		if lo >= hi {
			return numPots
		}
		return int(lo + rng.Float64()*(hi-lo))
	}
}

// LifespanDistribution draws a client's active-day count, matching
// Figure 13: most IPs a single day, a geometric tail, and a tiny
// population of near-daily "daemon" clients.
func LifespanDistribution(rng *rand.Rand, totalDays int) int {
	x := rng.Float64()
	switch {
	case x < 0.72:
		return 1
	case x < 0.90:
		return 2 + rng.Intn(6) // 2–7: "20% of activity observed for more than a week"
	case x < 0.999:
		// Geometric-ish tail up to a few months.
		d := int(math.Exp(rng.Float64()*math.Log(120))) + 7
		if d > totalDays {
			d = totalDays
		}
		return d
	default:
		// Daemons: active >90% of the period (the paper's ">100 client
		// IPs active almost every day").
		d := int(float64(totalDays) * (0.92 + 0.08*rng.Float64()))
		if d < 1 {
			d = 1
		}
		return d
	}
}
