package query_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"honeyfarm"
	"honeyfarm/internal/analysis"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/query"
	"honeyfarm/internal/store"
)

// batchSnapshot runs the batch pipeline (internal/analysis over a
// freshly built store) on a record prefix and shapes the results as a
// Snapshot serves them — the reference the incremental engine must
// match byte for byte after JSON encoding.
func batchSnapshot(recs []*honeypot.SessionRecord, epoch time.Time, numPots int, reg *geo.Registry) *query.Snapshot {
	st := store.New(epoch)
	st.AddBatch(recs)
	clients := analysis.ComputeClientStats(st, -1)
	return &query.Snapshot{
		Seq:         uint64(len(recs)),
		Days:        st.NumDays(),
		Summary:     analysis.ComputeCategoryShares(st),
		Pots:        analysis.ComputePerHoneypot(st, numPots),
		ClientCount: len(clients),
		Clients:     clients[:min(query.ClientRows, len(clients))],
		Countries:   analysis.ClientCountries(st, reg, nil),
		HashCount:   len(analysis.ComputeHashStats(st, nil)),
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotEquivalence is the tentpole property: a snapshot sealed
// at sequence N is byte-identical (after JSON encoding) to the batch
// pipeline over the first N records of the ingest stream — for random
// batch sizes, random seal points, and different generation worker
// counts.
func TestSnapshotEquivalence(t *testing.T) {
	const numPots = 37
	for _, workers := range []int{1, 7} {
		d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
			Seed: 11, TotalSessions: 5000, Days: 60, NumPots: numPots, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		recs := d.Store.Records()
		eng := query.New(query.Config{
			Epoch: honeyfarm.DefaultEpoch, NumPots: numPots,
			Registry: d.Registry,
		})
		rng := rand.New(rand.NewSource(int64(workers)))
		var seals []*query.Snapshot
		for i := 0; i < len(recs); {
			j := i + 1 + rng.Intn(400)
			if j > len(recs) {
				j = len(recs)
			}
			eng.Ingest(recs[i:j])
			i = j
			if rng.Intn(3) == 0 {
				seals = append(seals, eng.Seal())
			}
		}
		seals = append(seals, eng.Seal())

		// Check the empty snapshot, a few random seals, and the final one.
		picks := map[int]bool{0: true, len(seals) - 1: true}
		for len(picks) < 4 && len(picks) < len(seals) {
			picks[rng.Intn(len(seals))] = true
		}
		empty := query.New(query.Config{
			Epoch: honeyfarm.DefaultEpoch, NumPots: numPots,
			Registry: d.Registry,
		}).Snapshot()
		check := append([]*query.Snapshot{empty}, seals...)
		for idx := range picks {
			snap := check[idx]
			want := batchSnapshot(recs[:snap.Seq], honeyfarm.DefaultEpoch, numPots, d.Registry)
			got, ref := mustJSON(t, snap), mustJSON(t, want)
			if !bytes.Equal(got, ref) {
				t.Fatalf("workers=%d: snapshot at seq %d diverges from batch pipeline\nincremental: %.200s\nbatch:       %.200s",
					workers, snap.Seq, got, ref)
			}
		}
	}
}

// TestSnapshotCadence checks SnapshotEvery auto-sealing: the published
// snapshot advances without explicit Seal calls, and the auto-sealed
// view matches the batch pipeline at its own sequence.
func TestSnapshotCadence(t *testing.T) {
	const numPots = 9
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 3, TotalSessions: 1200, Days: 20, NumPots: numPots,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := d.Store.Records()
	eng := query.New(query.Config{
		Epoch: honeyfarm.DefaultEpoch, NumPots: numPots,
		Registry: d.Registry, SnapshotEvery: 97,
	})
	for i := 0; i < len(recs); i += 50 {
		j := i + 50
		if j > len(recs) {
			j = len(recs)
		}
		eng.Ingest(recs[i:j])
	}
	snap := eng.Snapshot()
	if snap.Seq == 0 || snap.Seq == uint64(len(recs)) {
		t.Fatalf("auto-seal published seq %d; expected an intermediate sequence (total %d)", snap.Seq, len(recs))
	}
	want := batchSnapshot(recs[:snap.Seq], honeyfarm.DefaultEpoch, numPots, d.Registry)
	if !bytes.Equal(mustJSON(t, snap), mustJSON(t, want)) {
		t.Fatalf("auto-sealed snapshot at seq %d diverges from batch pipeline", snap.Seq)
	}
}

// TestSnapshotIsolation: a snapshot held across further ingest must not
// change — its JSON encoding is stable while the engine moves on. The
// client accumulator keeps its head between seals, so every auto-sealed
// snapshot is held across all the seals after it (120 in all) while a
// reader keeps walking the published one (run under -race by check.sh),
// and no two snapshots' client heads may overlap in memory unless they
// say the same thing.
func TestSnapshotIsolation(t *testing.T) {
	const numPots, every = 5, 10
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 5, TotalSessions: 1200, Days: 10, NumPots: numPots,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := d.Store.Records()[:1200]
	eng := query.New(query.Config{
		Epoch: honeyfarm.DefaultEpoch, NumPots: numPots, Registry: d.Registry,
		SnapshotEvery: every,
	})

	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := eng.Snapshot()
			if _, err := json.Marshal(snap); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var held []*query.Snapshot
	var before [][]byte
	for lo := 0; lo < len(recs); lo += every {
		eng.Ingest(recs[lo:min(lo+every, len(recs))])
		snap := eng.Snapshot()
		if snap.Seq != uint64(min(lo+every, len(recs))) {
			t.Fatalf("auto-seal after %d records published seq %d", lo+every, snap.Seq)
		}
		held = append(held, snap)
		before = append(before, mustJSON(t, snap))
	}
	close(stop)
	<-readerDone

	if len(held) < 100 {
		t.Fatalf("only %d snapshots held", len(held))
	}
	if last := held[len(held)-1]; last.HashCount == 0 || len(last.Clients) == 0 {
		t.Fatalf("dataset too small to say anything: %d clients, %d hashes", len(last.Clients), last.HashCount)
	}
	for i, snap := range held {
		if !bytes.Equal(before[i], mustJSON(t, snap)) {
			t.Fatalf("snapshot %d (seq %d) mutated by later ingest", i, snap.Seq)
		}
		for _, later := range held[i+1:] {
			if overlap(snap.Clients, later.Clients) && !reflect.DeepEqual(snap.Clients, later.Clients) {
				t.Fatalf("snapshots at seq %d and %d share a client table backing array", snap.Seq, later.Seq)
			}
		}
	}
}

// TestSealAllocation: a seal builds what a snapshot serves — the
// client table's count and first ClientRows rows, the hash table's
// count — so what it allocates does not grow with the clients and
// hashes held. A seal that copied the client table would allocate
// 2.4 MB here (48 B a row), one that copied the hash table 1.6 MB
// (88 B a row).
func TestSealAllocation(t *testing.T) {
	const clients, hashes, pots = 50_000, 20_000, 4
	rec := func(i int, ip string) *honeypot.SessionRecord {
		return &honeypot.SessionRecord{
			ID: uint64(i), HoneypotID: i % pots, Protocol: honeypot.SSH, ClientIP: ip,
			Start: honeyfarm.DefaultEpoch, End: honeyfarm.DefaultEpoch,
		}
	}
	recs := make([]*honeypot.SessionRecord, clients)
	for i := range recs {
		recs[i] = rec(i, fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255))
		if i < hashes {
			recs[i].Files = []honeypot.FileRecord{{Path: "/tmp/x", Op: "wget", Hash: fmt.Sprintf("%064x", i)}}
		}
	}
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: pots})
	for lo := 0; lo < clients; lo += 1000 {
		eng.Ingest(recs[lo : lo+1000])
	}
	eng.Seal()
	// An IP that sorts before every other: the head must take it in.
	eng.Ingest([]*honeypot.SessionRecord{rec(clients, "1.2.3.4")})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := eng.Seal()
	runtime.ReadMemStats(&after)
	if snap.ClientCount != clients+1 || len(snap.Clients) != query.ClientRows ||
		snap.Clients[0].IP != "1.2.3.4" || snap.HashCount != hashes {
		t.Fatalf("seal of %d clients: count %d, %d rows from %q, %d hashes",
			clients+1, snap.ClientCount, len(snap.Clients), snap.Clients[0].IP, snap.HashCount)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent >= 64<<10 {
		t.Errorf("a seal holding %d clients and %d hashes allocated %d B, want < 64 KiB", clients+1, hashes, spent)
	}
}

// overlap reports whether two slices' backing arrays (to capacity)
// share any element.
func overlap[T any](a, b []T) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a, b = a[:cap(a)], b[:cap(b)]
	size := unsafe.Sizeof(a[0])
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
}
