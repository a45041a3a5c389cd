package metrics

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"honeyfarm/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// constant is a func series that always reads v.
func constant(v float64) func() float64 { return func() float64 { return v } }

// histogram is a stats.Histogram over bounds holding vs.
func histogram(t testing.TB, bounds []float64, vs ...float64) *stats.Histogram {
	h, err := stats.NewHistogram(bounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		h.Observe(v)
	}
	return h
}

// fill registers one of every kind over fixed state — the shared
// fixture for the golden and determinism tests.
func fill(t testing.TB, r *Registry) {
	c := new(Counter)
	c.Add(41)
	c.Inc()
	r.CounterFunc("test_sessions_total", "Sessions accepted.", nil, func() float64 { return float64(c.Value()) })
	r.CounterFunc("test_pot_sessions_total", "Sessions per pot.", Labels{"pot": "0"}, constant(7))
	r.CounterFunc("test_pot_sessions_total", "Sessions per pot.", Labels{"pot": "1"}, constant(3))
	r.GaugeFunc("test_lag_records", "Seal lag.", nil, constant(10))
	r.GaugeFunc("test_snapshot_seq", "Sealed snapshot sequence.", nil, constant(80))
	r.CounterFunc("test_ingested_total", "Ingested records.", Labels{"shard": "1", "role": "collector"}, constant(1234))
	h := histogram(t, stats.LogBuckets(0.001, 10, 4), 0.0005, 0.002, 0.2, 0.2, 99)
	r.HistogramFunc("test_pull_seconds", "Pull latency.", nil, func() *stats.Histogram { return h })
}

func TestRenderGolden(t *testing.T) {
	r := NewRegistry()
	fill(t, r)
	got := r.Render()
	path := filepath.Join("testdata", "registry.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRenderDeterministic(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	fill(t, a)
	fill(t, b)
	if !bytes.Equal(a.Render(), b.Render()) {
		t.Errorf("two registries over identical state rendered differently:\n--- a ---\n%s--- b ---\n%s", a.Render(), b.Render())
	}
	// Render twice: the reused buffer must not corrupt output.
	if !bytes.Equal(a.Render(), a.Render()) {
		t.Error("repeated renders of one registry differ")
	}
}

func TestLabelOrderIrrelevant(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.CounterFunc("x_total", "x.", Labels{"a": "1", "b": "2"}, constant(1))
	b.CounterFunc("x_total", "x.", Labels{"b": "2", "a": "1"}, constant(1))
	if !bytes.Equal(a.Render(), b.Render()) {
		t.Error("label map order changed the render")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("esc_total", "e.", Labels{"k": "a\\b\"c\nd"}, constant(1))
	out := string(r.Render())
	if !strings.Contains(out, `{k="a\\b\"c\nd"}`) {
		t.Errorf("labels not escaped: %q", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.CounterFunc("dup_total", "d.", nil, constant(1))
	r.CounterFunc("dup_total", "d.", nil, constant(1))
}

func TestKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r := NewRegistry()
	r.CounterFunc("conflict", "c.", nil, constant(1))
	r.GaugeFunc("conflict", "c.", nil, constant(1))
}

func TestReservedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("reserved le label did not panic")
		}
	}()
	r := NewRegistry()
	r.HistogramFunc("h", "h.", Labels{"le": "1"}, func() *stats.Histogram { return histogram(t, []float64{1}) })
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := histogram(t, []float64{1, 10}, 0.5, 5, 50)
	r.HistogramFunc("lat_seconds", "l.", Labels{"shard": "0"}, func() *stats.Histogram { return h })
	out := string(r.Render())
	for _, want := range []string{
		`lat_seconds_bucket{shard="0",le="1"} 1`,
		`lat_seconds_bucket{shard="0",le="10"} 2`,
		`lat_seconds_bucket{shard="0",le="+Inf"} 3`,
		`lat_seconds_sum{shard="0"} 55.5`,
		`lat_seconds_count{shard="0"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("hits_total", "h.", nil, constant(3))
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hits_total 3") {
		t.Errorf("body missing counter: %s", buf.String())
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := new(Counter)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkRender(b *testing.B) {
	r := NewRegistry()
	fill(b, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.mu.Lock()
		r.renderLocked()
		r.mu.Unlock()
	}
}
