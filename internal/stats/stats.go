// Package stats implements the statistical primitives behind the paper's
// figures: empirical CDFs (Figures 7, 12, 13, 22), daily percentile bands
// (median / IQR / 5th–95th, Figures 3, 4, 8, 9), sorted rank curves
// (Figures 2, 14, 18–21), and sliding-window freshness (Figure 17).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64
// samples. The zero value is an empty distribution; add samples with Add
// and call Sort (or any query method, which sorts lazily) before reading.
type ECDF struct {
	samples []float64
	sorted  bool
}

// NewECDF returns an ECDF over a copy of the given samples.
func NewECDF(samples []float64) *ECDF {
	e := &ECDF{samples: append([]float64(nil), samples...)}
	e.Sort()
	return e
}

// Add appends one sample.
func (e *ECDF) Add(v float64) {
	e.samples = append(e.samples, v)
	e.sorted = false
}

// Len returns the number of samples.
func (e *ECDF) Len() int { return len(e.samples) }

// Sort orders the samples; queries call it implicitly.
func (e *ECDF) Sort() {
	if !e.sorted {
		sort.Float64s(e.samples)
		e.sorted = true
	}
}

// P returns the fraction of samples ≤ x, in [0, 1]. An empty ECDF
// returns 0.
func (e *ECDF) P(x float64) float64 {
	if len(e.samples) == 0 {
		return 0
	}
	e.Sort()
	i := sort.SearchFloat64s(e.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.samples))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using nearest-rank on the
// sorted samples. An empty ECDF returns NaN.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.samples) == 0 {
		return math.NaN()
	}
	e.Sort()
	if q <= 0 {
		return e.samples[0]
	}
	if q >= 1 {
		return e.samples[len(e.samples)-1]
	}
	i := int(math.Ceil(q*float64(len(e.samples)))) - 1
	if i < 0 {
		i = 0
	}
	return e.samples[i]
}

// Points reduces the ECDF to at most n (x, P(x)) pairs for plotting,
// always including the extremes.
func (e *ECDF) Points(n int) []Point {
	e.Sort()
	m := len(e.samples)
	if m == 0 || n <= 0 {
		return nil
	}
	if n > m {
		n = m
	}
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := m - 1
		if n > 1 {
			idx = i * (m - 1) / (n - 1)
		}
		out = append(out, Point{X: e.samples[idx], Y: float64(idx+1) / float64(m)})
	}
	return out
}

// Point is one (x, y) pair of a plotted series.
type Point struct{ X, Y float64 }

// Quantiles computes several quantiles in one pass over the sort.
func (e *ECDF) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = e.Quantile(q)
	}
	return out
}

// Mean returns the arithmetic mean, or NaN when empty.
func (e *ECDF) Mean() float64 {
	if len(e.samples) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range e.samples {
		s += v
	}
	return s / float64(len(e.samples))
}

// Band is one day's (or any bucket's) summary used by the paper's
// percentile-band time series: median, interquartile range, and the
// 5th–95th percentile range.
type Band struct {
	P5, P25, Median, P75, P95 float64
}

// BandOf summarizes one bucket of values.
func BandOf(values []float64) Band {
	e := NewECDF(values)
	q := e.Quantiles(0.05, 0.25, 0.5, 0.75, 0.95)
	return Band{P5: q[0], P25: q[1], Median: q[2], P75: q[3], P95: q[4]}
}

// Series is a bucketed percentile-band time series: Bands[i] summarizes
// bucket i (typically day i of the observation period).
type Series struct {
	Bands []Band
}

// NewSeries computes per-bucket bands from a matrix where rows are buckets
// (days) and columns are entities (honeypots): values[day][pot].
func NewSeries(values [][]float64) Series {
	s := Series{Bands: make([]Band, len(values))}
	for i, day := range values {
		s.Bands[i] = BandOf(day)
	}
	return s
}

// RankCurve sorts values in descending order, producing the "sorted by
// activity" curves of Figures 2, 14, and 18–21. The input is not modified.
func RankCurve(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// TopShare returns the fraction of the total contributed by the k largest
// values (e.g. "the top 10 honeypots see 14% of all sessions").
func TopShare(values []float64, k int) float64 {
	rc := RankCurve(values)
	if k > len(rc) {
		k = len(rc)
	}
	var top, total float64
	for i, v := range rc {
		if i < k {
			top += v
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// Knee locates the knee of a descending rank curve as the point of maximum
// distance from the chord between the first and last points. The paper
// observes a knee around rank 11 in Figure 2. Returns the 1-based rank.
func Knee(ranked []float64) int {
	n := len(ranked)
	if n < 3 {
		return n
	}
	x1, y1 := 0.0, ranked[0]
	x2, y2 := float64(n-1), ranked[n-1]
	dx, dy := x2-x1, y2-y1
	norm := math.Hypot(dx, dy)
	best, bestDist := 0, -1.0
	for i := 1; i < n-1; i++ {
		// Perpendicular distance from (i, ranked[i]) to the chord.
		d := math.Abs(dy*float64(i)-dx*ranked[i]+x2*y1-y2*x1) / norm
		if d > bestDist {
			bestDist = d
			best = i
		}
	}
	return best + 1
}

// FreshnessWindow tracks which string keys have been seen within a sliding
// window of buckets (days). Window 0 means "all time". It powers Figure 17:
// the fraction of each day's unique hashes not observed in the preceding
// 7 / 30 / all days.
type FreshnessWindow struct {
	window   int
	lastSeen map[string]int
	day      int
}

// NewFreshnessWindow creates a tracker. window is the number of preceding
// buckets consulted; 0 means unbounded memory (all-time freshness).
func NewFreshnessWindow(window int) *FreshnessWindow {
	return &FreshnessWindow{window: window, lastSeen: make(map[string]int), day: -1}
}

// Advance moves to bucket day (must be non-decreasing) and reports, for the
// given set of keys observed in that bucket, how many are fresh: not seen
// in the preceding `window` buckets (or ever, for window 0). All keys are
// then recorded as seen on this bucket.
func (f *FreshnessWindow) Advance(day int, keys []string) (fresh int) {
	if day < f.day {
		panic(fmt.Sprintf("stats: FreshnessWindow.Advance day %d < %d", day, f.day))
	}
	f.day = day
	for _, k := range keys {
		last, seen := f.lastSeen[k]
		if !seen || (f.window > 0 && day-last > f.window) {
			fresh++
		}
		f.lastSeen[k] = day
	}
	return fresh
}

// LogBins produces geometrically spaced bin edges covering [lo, hi] with
// n bins, for the log-scale histograms of Figures 20 and 21.
func LogBins(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 1 {
		return nil
	}
	edges := make([]float64, n+1)
	ratio := math.Pow(hi/lo, 1/float64(n))
	edges[0] = lo
	for i := 1; i <= n; i++ {
		edges[i] = edges[i-1] * ratio
	}
	edges[n] = hi // guard against rounding drift
	return edges
}
