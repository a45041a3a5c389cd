package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile pins the names and units the
// program prints to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// TestMiniatureWorkloads runs every workload both ways at miniature
// size and asserts the report carries every declared metric, finite
// and with its unit, and that the run's own checks passed.
func TestMiniatureWorkloads(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			out := t.TempDir()
			res, err := runWorkload(runConfig{workload: name, seed: 7, seconds: 1, trace: trace == 1, outDir: out, sz: miniSizes})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			rep, err := toReport(res, trace == 1)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			if trace == 0 {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics reported, %d declared", name, trace, len(rep.Metrics), len(want))
			}
			for metric, unit := range want {
				got, ok := rep.Metrics[metric]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s not reported", name, trace, metric)
				case got.Unit != unit:
					t.Errorf("%s trace=%d: %s has unit %q, want %q", name, trace, metric, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", name, trace, metric, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, metric, got.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(out, "trace-"+name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
				if rep.Metrics["trace.spans"].Value < 10 {
					t.Errorf("%s: only %v spans recorded", name, rep.Metrics["trace.spans"].Value)
				}
			}
			if ents, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(ents) != 0 {
				t.Errorf("%s trace=%d: scratch left behind: %v", name, trace, ents)
			}
		}
	}
}

// measuredWorkload sets a miniature workload up and runs its measured phase,
// handing back what verify is about to check.
func measuredWorkload(t *testing.T, name string) (*run, workload) {
	t.Helper()
	r := &run{
		cfg: runConfig{workload: name, seed: 3, seconds: 0.5, outDir: t.TempDir(), sz: miniSizes},
		tmp: t.TempDir(), e2e: map[string]float64{}, layer: map[string]float64{},
	}
	w, err := newWorkload(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(noSpan); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.teardown(); err != nil {
			t.Error(err)
		}
	})
	if err := w.measure(noSpan); err != nil {
		t.Fatal(err)
	}
	return r, w
}

// TestChecksFire damages what each workload's measured phase left
// behind and expects verify to say so.
func TestChecksFire(t *testing.T) {
	damage := map[string]func(w workload){
		"wire_telnet_cmd": func(w workload) { // a record lost between sink and disk
			ww := w.(*wireWorkload)
			ww.recovered--
			ww.batches = ww.batches[1:]
		},
		"record_ingest": func(w workload) { // the same, without sockets
			iw := w.(*ingestWorkload)
			iw.recovered -= len(iw.batches[0])
			iw.batches = iw.batches[1:]
		},
		"fleet_visibility": func(w workload) { // a merged view that is not the single-node one
			fw := w.(*fleetWorkload)
			fw.merged[v1Paths[0]] = append([]byte(nil), fw.merged[v1Paths[1]]...)
		},
	}
	for name, hurt := range damage {
		r, w := measuredWorkload(t, name)
		if err := w.verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.problem) != 0 {
			t.Fatalf("%s: undamaged run fails its checks: %v", name, r.problem)
		}
		hurt(w)
		if err := w.verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.problem) == 0 {
			t.Errorf("%s: damaged run passed its checks", name)
		}
	}
}

// TestSelfTime pins the span arithmetic: a span's self time is its
// duration minus what its children cover, overlaps counted once and
// overhang clipped.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: noSpan},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 130, Parent: 0}, // outlives the parent
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "lone", Start: 200, End: 250, Parent: noSpan},
	}
	want := []int64{
		100 - (50 + 10), // a∪b covers 10..60, c covers 90..100
		30 - 5,
		30,
		40,
		5,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	stats := aggregate(spans)
	if st := stats["parent"]; st.count != 1 || st.total != 100 || st.self != 40 {
		t.Errorf("aggregate(parent) = %+v", st)
	}
	// Leaves inside 0..100 are a1, b (c overhangs, a has a child):
	// 15..20 and 30..60.
	if got := leafCover(spans, 0, 100); got != 35 {
		t.Errorf("leafCover = %d, want 35", got)
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0: 1} {
		if got := quantile(vs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 80, "higher"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("throughput 100→80: worse by %v, want 0.2", got)
	}
	if got := worseBy(10, 12, "lower"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("latency 10→12: worse by %v, want 0.2", got)
	}
	if got := worseBy(10, 8, "lower"); got >= 0 {
		t.Errorf("latency 10→8: worse by %v, want negative", got)
	}
}
