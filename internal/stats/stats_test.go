package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if e.Len() != 4 {
		t.Fatalf("Len = %d", e.Len())
	}
	if got := e.P(0); got != 0 {
		t.Errorf("P(0) = %v, want 0", got)
	}
	if got := e.P(2); got != 0.5 {
		t.Errorf("P(2) = %v, want 0.5", got)
	}
	if got := e.P(4); got != 1 {
		t.Errorf("P(4) = %v, want 1", got)
	}
	if got := e.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := e.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4", got)
	}
	if got := e.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	var e ECDF
	if e.P(10) != 0 {
		t.Error("empty P should be 0")
	}
	if !math.IsNaN(e.Quantile(0.5)) || !math.IsNaN(e.Mean()) {
		t.Error("empty quantile/mean should be NaN")
	}
	if e.Points(5) != nil {
		t.Error("empty Points should be nil")
	}
}

func TestECDFAddThenQuery(t *testing.T) {
	var e ECDF
	for _, v := range []float64{5, 1, 3} {
		e.Add(v)
	}
	if got := e.Quantile(0.5); got != 3 {
		t.Errorf("Quantile(0.5) = %v, want 3", got)
	}
	e.Add(0)
	if got := e.P(0); got != 0.25 {
		t.Errorf("P(0) after Add = %v, want 0.25", got)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := e.Points(5)
	if len(pts) != 5 {
		t.Fatalf("len(pts) = %d", len(pts))
	}
	if pts[0].X != 1 || pts[len(pts)-1].X != 10 {
		t.Errorf("extremes not included: %v", pts)
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("last Y = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y || pts[i].X < pts[i-1].X {
			t.Errorf("points not monotone: %v", pts)
		}
	}
}

// Property: P is monotone non-decreasing and bounded in [0,1]; quantile and
// P are consistent (P(Quantile(q)) >= q).
func TestQuickECDFInvariants(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		e := NewECDF(vals)
		x := e.Quantile(q)
		if p := e.P(x); p < q-1e-9 {
			return false
		}
		// monotone on a few probes
		prev := -1.0
		for _, probe := range []float64{e.Quantile(0.1), e.Quantile(0.5), e.Quantile(0.9)} {
			p := e.P(probe)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBandOf(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	b := BandOf(vals)
	if b.Median != 50 {
		t.Errorf("Median = %v, want 50", b.Median)
	}
	if b.P5 != 5 || b.P95 != 95 || b.P25 != 25 || b.P75 != 75 {
		t.Errorf("Band = %+v", b)
	}
}

func TestNewSeries(t *testing.T) {
	s := NewSeries([][]float64{{1, 2, 3}, {10, 20, 30}})
	if len(s.Bands) != 2 {
		t.Fatalf("len = %d", len(s.Bands))
	}
	if s.Bands[0].Median != 2 || s.Bands[1].Median != 20 {
		t.Errorf("medians = %v, %v", s.Bands[0].Median, s.Bands[1].Median)
	}
}

func TestRankCurveAndTopShare(t *testing.T) {
	vals := []float64{1, 100, 10, 50}
	rc := RankCurve(vals)
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(rc))) {
		t.Errorf("not descending: %v", rc)
	}
	if vals[0] != 1 {
		t.Error("RankCurve must not modify input")
	}
	if got := TopShare(vals, 1); math.Abs(got-100.0/161.0) > 1e-12 {
		t.Errorf("TopShare(1) = %v", got)
	}
	if got := TopShare(vals, 10); got != 1 {
		t.Errorf("TopShare(all) = %v, want 1", got)
	}
	if got := TopShare(nil, 3); got != 0 {
		t.Errorf("TopShare(nil) = %v, want 0", got)
	}
}

func TestKnee(t *testing.T) {
	// A curve with an obvious knee: steep drop for the first 10 ranks then flat.
	vals := make([]float64, 200)
	for i := range vals {
		if i < 10 {
			vals[i] = float64(1000 * (10 - i))
		} else {
			vals[i] = 100 - float64(i)*0.1
		}
	}
	k := Knee(vals)
	if k < 5 || k > 15 {
		t.Errorf("Knee = %d, want ≈10", k)
	}
	if Knee([]float64{3, 1}) != 2 {
		t.Error("short curve knee should be len")
	}
}

func TestFreshnessWindowAllTime(t *testing.T) {
	f := NewFreshnessWindow(0)
	if got := f.Advance(0, []string{"a", "b"}); got != 2 {
		t.Errorf("day0 fresh = %d, want 2", got)
	}
	if got := f.Advance(1, []string{"a", "c"}); got != 1 {
		t.Errorf("day1 fresh = %d, want 1", got)
	}
	if got := f.Advance(100, []string{"a", "b", "c"}); got != 0 {
		t.Errorf("all-time window should never forget, fresh = %d", got)
	}
}

func TestFreshnessWindowSliding(t *testing.T) {
	f := NewFreshnessWindow(7)
	f.Advance(0, []string{"h"})
	if got := f.Advance(7, []string{"h"}); got != 0 {
		t.Errorf("within window fresh = %d, want 0", got)
	}
	if got := f.Advance(15, []string{"h"}); got != 1 {
		t.Errorf("outside window fresh = %d, want 1", got)
	}
}

func TestFreshnessWindowPanicsOnRegression(t *testing.T) {
	f := NewFreshnessWindow(0)
	f.Advance(5, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on day regression")
		}
	}()
	f.Advance(4, nil)
}

// Property: a shorter window never reports fewer fresh keys than a longer
// one (7-day fresh ⊇ 30-day fresh ⊇ all-time fresh), mirroring Figure 17's
// ordering of the three curves.
func TestQuickFreshnessMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w7, w30, all := NewFreshnessWindow(7), NewFreshnessWindow(30), NewFreshnessWindow(0)
		keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for day := 0; day < 120; day++ {
			var todays []string
			for _, k := range keys {
				if rng.Intn(10) == 0 {
					todays = append(todays, k)
				}
			}
			f7 := w7.Advance(day, todays)
			f30 := w30.Advance(day, todays)
			fa := all.Advance(day, todays)
			if f7 < f30 || f30 < fa {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLogBins(t *testing.T) {
	edges := LogBins(1, 1000, 3)
	if len(edges) != 4 {
		t.Fatalf("len = %d", len(edges))
	}
	if edges[0] != 1 || edges[3] != 1000 {
		t.Errorf("edges = %v", edges)
	}
	if math.Abs(edges[1]-10) > 1e-9 || math.Abs(edges[2]-100) > 1e-9 {
		t.Errorf("edges = %v, want powers of 10", edges)
	}
	if LogBins(0, 10, 3) != nil || LogBins(10, 5, 3) != nil || LogBins(1, 10, 0) != nil {
		t.Error("invalid inputs should yield nil")
	}
}

func BenchmarkECDFQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	e := NewECDF(vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Quantile(0.95)
	}
}

func BenchmarkFreshnessWindow(b *testing.B) {
	f := NewFreshnessWindow(30)
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = string(rune('a' + i%26))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Advance(i, keys)
	}
}

// TestECDFPointsSingleSample: a one-sample ECDF (e.g. a campaign tag
// seen on a single day at small scale) must plot its one point instead
// of dividing by zero.
func TestECDFPointsSingleSample(t *testing.T) {
	e := NewECDF([]float64{7})
	for _, n := range []int{1, 3, 8} {
		pts := e.Points(n)
		if len(pts) != 1 || pts[0].X != 7 || pts[0].Y != 1 {
			t.Fatalf("Points(%d) = %+v, want one (7, 1) point", n, pts)
		}
	}
}
