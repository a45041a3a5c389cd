package honeyfarm

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// saved writes d with SaveWAL and returns the log's segment files,
// concatenated in sequence order.
func saved(t *testing.T, d *Dataset) []byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "dataset")
	if err := d.SaveWAL(dir); err != nil {
		t.Fatal(err)
	}
	var raw []byte
	for _, seg := range segments(t, dir) {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, b...)
	}
	return raw
}

// TestSameSeedByteIdentical is the determinism regression test behind
// the nondeterminism lint rule: generating a dataset twice from one seed
// must yield byte-identical saved logs, identical classification
// counts, and identical malware hash sets. Any global-rand or wall-clock
// leak on the simulation path breaks this immediately.
func TestSameSeedByteIdentical(t *testing.T) {
	cfg := SimulateConfig{Seed: 42, TotalSessions: 4000, Days: 30, NumPots: 24}

	generate := func() ([]byte, *Dataset) {
		d, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return saved(t, d), d
	}
	rawA, dsA := generate()
	rawB, dsB := generate()

	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("same seed produced different serialized datasets:\n  run A: %d bytes, sha256 %x\n  run B: %d bytes, sha256 %x",
			len(rawA), sha256.Sum256(rawA), len(rawB), sha256.Sum256(rawB))
	}

	sharesA, sharesB := dsA.CategoryShares(), dsB.CategoryShares()
	if !reflect.DeepEqual(sharesA, sharesB) {
		t.Errorf("same seed produced different classification shares:\n  run A: %+v\n  run B: %+v", sharesA, sharesB)
	}

	hashSet := func(d *Dataset) map[string]int {
		out := map[string]int{}
		for _, h := range d.HashStats() {
			out[h.Hash] = h.Sessions
		}
		return out
	}
	setA, setB := hashSet(dsA), hashSet(dsB)
	if !reflect.DeepEqual(setA, setB) {
		t.Errorf("same seed produced different hash sets: run A has %d hashes, run B has %d", len(setA), len(setB))
	}
	if len(setA) == 0 {
		t.Error("dataset produced no file hashes; the determinism check is vacuous")
	}

	// The rendered report must be byte-stable too: every per-tag or
	// per-key section has to iterate in a sorted order, never raw map
	// order (Figure 22 once leaked map iteration order here).
	render := func(d *Dataset) []byte {
		var buf bytes.Buffer
		d.WriteReport(&buf, ReportOptions{})
		return buf.Bytes()
	}
	if repA, repB := render(dsA), render(dsB); !bytes.Equal(repA, repB) {
		t.Error("same seed produced different rendered reports; a report section iterates a map in raw order")
	}

	// A different seed must actually change the output, or the test above
	// proves nothing about seed-driven generation.
	cfg.Seed = 43
	rawC, _ := generate()
	if bytes.Equal(rawA, rawC) {
		t.Error("different seeds produced identical datasets")
	}
}

// TestWorkersByteIdentical pins the sharded pipeline's central contract:
// the worker count is purely a speed knob, and every value produces the
// same bytes. Shard seeds derive from (root seed, shard index) and the
// merge is ordered, so Workers must never leak into the output.
func TestWorkersByteIdentical(t *testing.T) {
	// Force real parallelism even on a single-CPU machine so the
	// multi-worker runs actually interleave.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	base := SimulateConfig{Seed: 42, TotalSessions: 4000, Days: 30, NumPots: 24}

	generate := func(workers int) []byte {
		cfg := base
		cfg.Workers = workers
		d, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return saved(t, d)
	}

	ref := generate(1)
	for _, workers := range []int{2, 4, 7, runtime.GOMAXPROCS(0)} {
		got := generate(workers)
		if !bytes.Equal(ref, got) {
			t.Errorf("workers=%d diverges from workers=1:\n  workers=1: %d bytes, sha256 %x\n  workers=%d: %d bytes, sha256 %x",
				workers, len(ref), sha256.Sum256(ref), workers, len(got), sha256.Sum256(got))
		}
	}

	// Repeat a parallel run: the parallel path itself must be stable.
	if again := generate(4); !bytes.Equal(ref, again) {
		t.Error("repeated workers=4 run diverges; parallel generation is nondeterministic")
	}
}

// TestFaultsByteIdentical extends the determinism contract to fault
// injection: the same seed plus the same fault plan must produce a
// byte-identical dataset (and availability table) on every run and at
// every worker count, the culled survivors must be a strict subset of
// the fault-free run, and a pot with a full-period outage must collect
// nothing.
func TestFaultsByteIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	plan := &FaultPlan{
		Seed:       7,
		RefuseRate: 0.1,
		ResetRate:  0.07,
		StallRate:  0.05,
		Outages: []FaultOutage{
			{Pot: 3, FirstDay: 0, LastDay: 29}, // down the whole period
			{Pot: 5, FirstDay: 10, LastDay: 19},
		},
	}
	base := SimulateConfig{Seed: 42, TotalSessions: 4000, Days: 30, NumPots: 24, Faults: plan}

	generate := func(cfg SimulateConfig) ([]byte, *Dataset) {
		d, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return saved(t, d), d
	}

	rawA, dsA := generate(base)
	rawB, dsB := generate(base)
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("same seed + same fault plan produced different datasets:\n  run A: %d bytes, sha256 %x\n  run B: %d bytes, sha256 %x",
			len(rawA), sha256.Sum256(rawA), len(rawB), sha256.Sum256(rawB))
	}
	if !reflect.DeepEqual(dsA.Availability(), dsB.Availability()) {
		t.Error("same seed + same fault plan produced different availability tables")
	}

	// Worker count stays a pure speed knob under faults.
	for _, workers := range []int{2, 7} {
		cfg := base
		cfg.Workers = workers
		raw, _ := generate(cfg)
		if !bytes.Equal(rawA, raw) {
			t.Errorf("faulted run with workers=%d diverges from workers=default", workers)
		}
	}

	// The faulted dataset is a strict subset of the fault-free one:
	// culling removes records without perturbing the survivors.
	clean := base
	clean.Faults = nil
	rawClean, dsClean := generate(clean)
	if bytes.Equal(rawA, rawClean) {
		t.Fatal("fault plan with 22% drop rate and two outages changed nothing")
	}
	if dsA.Sessions() >= dsClean.Sessions() {
		t.Errorf("faulted run has %d sessions, fault-free %d; want strictly fewer",
			dsA.Sessions(), dsClean.Sessions())
	}
	cleanRecs := map[string]bool{}
	for _, r := range dsClean.Store.Records() {
		b, _ := json.Marshal(r)
		cleanRecs[string(b)] = true
	}
	for i, r := range dsA.Store.Records() {
		if b, _ := json.Marshal(r); !cleanRecs[string(b)] {
			t.Fatalf("faulted record %d is not byte-identical to its fault-free counterpart", i)
		}
	}

	// The full-period outage silences pot 3; the partial one only dents
	// pot 5. The report's accounting matches what is missing.
	rows := dsA.Availability()
	if rows[3].Sessions != 0 || rows[3].DownDays != 30 || rows[3].Availability != 0 {
		t.Errorf("pot 3 (full outage) row = %+v, want 0 sessions, 30 down days", rows[3])
	}
	if rows[3].DowntimeDrops == 0 {
		t.Error("pot 3 lost no sessions to its outage; the cull is vacuous")
	}
	if rows[5].Sessions == 0 || rows[5].DownDays != 10 {
		t.Errorf("pot 5 (partial outage) row = %+v, want sessions > 0 and 10 down days", rows[5])
	}
	got := 0
	for _, r := range rows {
		got += r.DowntimeDrops + r.ConnDrops
	}
	if dropped := dsClean.Sessions() - dsA.Sessions(); got != dropped {
		t.Errorf("availability table accounts %d drops, dataset lost %d", got, dropped)
	}
}

// digestPinConfig is the workload behind TestGenerateDigestPinned:
// ≈110k plan entries on the full 221-pot farm, so generation spans ≈27
// plan shards and the planner and decorators really overlap.
func digestPinConfig() SimulateConfig {
	return SimulateConfig{Seed: 5, TotalSessions: 100_000, NumPots: 221}
}

// TestGenerateDigestPinned pins the sha256 of the segment files SaveWAL
// writes, and of the fault report, for a dataset many plan shards long.
// A decorator that reads a shard before the planner finishes it, a shard
// stored out of order, or a fault count lost in a per-shard merge fails
// here at every worker count. Serialised as the JSON Lines dump this
// package once wrote, the records read back from each pinned log hash to
// the digests pinned before the plan and decorate passes overlapped.
func TestGenerateDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates six 100k-session datasets")
	}
	faulted := func() *FaultPlan {
		return &FaultPlan{
			Seed:       7,
			RefuseRate: 0.1,
			ResetRate:  0.07,
			StallRate:  0.05,
			Outages: []FaultOutage{
				{Pot: 3, FirstDay: 0, LastDay: 485},
				{Pot: 5, FirstDay: 10, LastDay: 19},
			},
		}
	}
	for _, tc := range []struct {
		name          string
		faults        *FaultPlan
		save, reports string
	}{
		{"clean", nil,
			"eb9bddd96df3069b02162d43cf462e73a30dd03fb82c7df88a2b2ee1b23145ef",
			"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}, // json "null"
		{"faults", faulted(),
			"c1a647e03e18027b1570dd891632c7a5528fc5a8d76f75bbd40795625ca930ec",
			"7a7ca6c61f028026826b995d7ec8366e2ad13791728733ab343b483c1a461d98"},
	} {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			cfg := digestPinConfig()
			cfg.Faults, cfg.Workers = tc.faults, workers
			d, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := json.Marshal(d.Faults)
			if err != nil {
				t.Fatal(err)
			}
			save, reports := fmt.Sprintf("%x", sha256.Sum256(saved(t, d))), fmt.Sprintf("%x", sha256.Sum256(rep))
			if save != tc.save || reports != tc.reports {
				t.Errorf("%s, workers=%d: segment sha256 %s, fault report sha256 %s; pinned %s, %s",
					tc.name, workers, save, reports, tc.save, tc.reports)
			}
		}
	}
}
