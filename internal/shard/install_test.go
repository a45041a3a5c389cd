package shard_test

// The install path: a frame is published from the merged bundle first
// and kept after; a shard's kept deltas are compacted into a full frame
// off the merge lock once they outgrow the one they follow; a rebuild
// decodes every shard's kept frames; and a frame shaped for another
// fleet is refused before any of it.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
)

// v1Bodies renders every /v1 table endpoint of src.
func v1Bodies(t *testing.T, src query.Source) map[string][]byte {
	t.Helper()
	h := query.NewServer(query.ServerConfig{Source: src}).Handler()
	out := map[string][]byte{}
	for _, ep := range []string{"summary", "pots", "clients", "countries"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/"+ep, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/%s: status %d", ep, rec.Code)
		}
		out[ep] = rec.Body.Bytes()
	}
	return out
}

// TestCoordinatorRebuildDuringCatchUp: shard 1 keeps answering deltas,
// each kept after the merged view is published and compacted with the
// ones before it, off the merge lock, once they outgrow the full frame
// they follow, while shard 0 restarts again and again on a fresh engine
// that replays its records and a few more. Each restart answers a full
// frame past the installed seq, so the merged bundle is rebuilt from
// every shard's kept frames while shard 1's compaction may be in
// flight; a rebuild that read a half-swapped frame list, or a swap that
// lost a delta, would skew the merged view for good. At quiescence
// every /v1 body is byte-identical to one engine fed all the records.
func TestCoordinatorRebuildDuringCatchUp(t *testing.T) {
	const restarts, batch = 12, 10
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	recs := d.Store.Records()
	parts := [][]*honeypot.SessionRecord{partition(recs, 2, 0), partition(recs, 2, 1)}

	// Shard 0's listener outlives its engines: a restart swaps in the
	// handler of a fresh engine holding the first k records.
	var current atomic.Pointer[http.Handler]
	restart := func(k int) {
		eng := newEngine(d)
		eng.Ingest(parts[0][:k])
		h := shard.NewHandler(eng)
		current.Store(&h)
	}
	step := len(parts[0]) / (restarts + 1)
	restart(step)
	s0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	eng1 := newEngine(d)
	preload := len(parts[1]) / 4
	eng1.Ingest(parts[1][:preload])
	s1 := httptest.NewServer(shard.NewHandler(eng1))
	client := &http.Client{Timeout: 5 * time.Second}
	coord := startCoordinator(t, []string{s0.URL, s1.URL}, client)
	installed := func(i int) uint64 { return coord.ShardStatuses()[i].LastSeq }
	waitFor(t, 10*time.Second, func() bool { return installed(0) == uint64(step) }, "first contact")

	stop, fed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(fed)
		for off := preload; off < len(parts[1]); off += batch {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			eng1.Ingest(parts[1][off:min(off+batch, len(parts[1]))])
		}
	}()
	for r := 2; r <= restarts+1; r++ {
		k := r * step
		if r == restarts+1 {
			k = len(parts[0])
		}
		// Restart once shard 1 has installed another delta, so the
		// rebuilds land among its catch-ups.
		for was := installed(1); installed(1) == was && installed(1) < uint64(len(parts[1])); {
			time.Sleep(100 * time.Microsecond)
		}
		restart(k)
		waitFor(t, 10*time.Second, func() bool { return installed(0) == uint64(k) }, "restarted shard 0 installed")
	}
	<-fed
	waitFor(t, 10*time.Second, func() bool { return coord.Snapshot().Seq == uint64(len(recs)) }, "quiescence")
	if got := coord.MergeRebuilds(); got < restarts {
		t.Errorf("%d rebuilds after %d restarts past the installed seq", got, restarts)
	}
	single := newEngine(d)
	single.Ingest(recs)
	single.Seal()
	want := v1Bodies(t, single)
	for ep, got := range v1Bodies(t, coord) {
		if !bytes.Equal(got, want[ep]) {
			t.Errorf("/v1/%s differs from single-node (%d vs %d bytes)", ep, len(got), len(want[ep]))
		}
	}
	close(stop)
	coord.Stop()
	s0.Close()
	s1.Close()
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}

// BenchmarkInstallToPublish times one 250-record delta from install to
// the merged snapshot that covers it, on a coordinator holding two
// shards of ≈137k records each: one decode, the merge and materialize.
// A compaction, when the kept deltas outgrow the full frame, comes
// after the publish and is off the clock. allocs/op counts what is
// allocated on the clock. The pullers point at nothing, so only the
// benchmark installs; the deltas are cut by a real shard handler, off
// the clock, from a pool re-ingested in turn.
func BenchmarkInstallToPublish(b *testing.B) {
	const perShard, delta, pool = 137_000, 250, 40 * 250
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 3, TotalSessions: 2*perShard + pool + 5_000, NumPots: testPots,
	})
	if err != nil {
		b.Fatal(err)
	}
	recs := d.Store.Records()
	engines := []*query.Engine{newEngine(d), newEngine(d)}
	engines[0].Ingest(recs[:perShard])
	engines[1].Ingest(recs[perShard : 2*perShard])
	more := recs[2*perShard : 2*perShard+pool]
	cut := cutter(engines[0])
	coord := idleCoordinator(b)
	for i, frame := range [][]byte{cut(0), shard.EncodePartialsFrame(engines[1])} {
		if err := coord.Install(i, frame); err != nil {
			b.Fatal(err)
		}
	}
	covered := func(seq uint64) {
		for coord.Snapshot().Seq < seq {
			runtime.Gosched()
		}
	}
	covered(2 * perShard)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		off := n * delta % pool
		since := engines[0].Seq()
		engines[0].Ingest(more[off : off+delta])
		frame := cut(since)
		want := engines[0].Seq() + perShard
		done := make(chan error, 1)
		b.StartTimer()
		go func() { done <- coord.Install(0, frame) }()
		covered(want)
		b.StopTimer()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
}

// idleCoordinator is a coordinator whose pullers point at nothing and
// never pull, so only the test installs.
func idleCoordinator(t testing.TB) *shard.Coordinator {
	t.Helper()
	coord, err := shard.New(shard.Config{
		Shards:    []string{"http://127.0.0.1:1", "http://127.0.0.1:1"},
		NumPots:   testPots,
		Countries: true,
		Epoch:     honeyfarm.DefaultEpoch,
		PullEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	return coord
}

// cutter returns a function that cuts eng's frame since a seq (0: the
// full frame) through a real shard handler.
func cutter(eng *query.Engine) func(since uint64) []byte {
	handler := shard.NewHandler(eng)
	return func(since uint64) []byte {
		url := shard.PartialsPath
		if since > 0 {
			url += "?since=" + strconv.FormatUint(since, 10)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Body.Bytes()
	}
}

// TestCoordinatorCompactsFrames: shard 0 answers a small full frame and
// then many deltas. After every install the deltas kept behind the full
// frame total at most its length — past that they are compacted into a
// new full frame at the installed seq — and at least one compaction
// happens. A full frame of shard 1 past its seq then rebuilds the
// merged bundle from the compacted frames, and every /v1 body is
// byte-identical to one engine fed the same records.
func TestCoordinatorCompactsFrames(t *testing.T) {
	const first, batch = 100, 10
	d := dataset(t, 1)
	recs := d.Store.Records()
	parts := [][]*honeypot.SessionRecord{partition(recs, 2, 0), partition(recs, 2, 1)}
	coord := idleCoordinator(t)

	eng0, eng1 := newEngine(d), newEngine(d)
	eng0.Ingest(parts[0][:first])
	eng1.Ingest(parts[1][:len(parts[1])/2])
	cut0 := cutter(eng0)
	for i, frame := range [][]byte{cut0(0), shard.EncodePartialsFrame(eng1)} {
		if err := coord.Install(i, frame); err != nil {
			t.Fatal(err)
		}
	}
	compactions := 0
	for off := first; off < len(parts[0]); off += batch {
		since := eng0.Seq()
		eng0.Ingest(parts[0][off:min(off+batch, len(parts[0]))])
		before := len(coord.HeldFrames(0))
		if err := coord.Install(0, cut0(since)); err != nil {
			t.Fatal(err)
		}
		held := coord.HeldFrames(0)
		if len(held) <= before {
			compactions++
		}
		deltas := 0
		for _, f := range held[1:] {
			deltas += len(f)
		}
		if deltas > len(held[0]) {
			t.Fatalf("at seq %d: %d bytes of deltas kept behind a %d-byte full frame", eng0.Seq(), deltas, len(held[0]))
		}
		if from, seq, _, _, err := shard.DecodeFrame(held[0]); err != nil || from != 0 {
			t.Fatalf("at seq %d: kept base frame from %d, err %v; want a full frame", eng0.Seq(), from, err)
		} else if len(held) == 1 && seq != eng0.Seq() {
			t.Fatalf("compacted frame at seq %d, installed seq is %d", seq, eng0.Seq())
		}
	}
	if compactions == 0 {
		t.Fatal("no install compacted the kept frames")
	}

	rebuilds := coord.MergeRebuilds()
	eng1.Ingest(parts[1][len(parts[1])/2:])
	if err := coord.Install(1, shard.EncodePartialsFrame(eng1)); err != nil {
		t.Fatal(err)
	}
	if coord.MergeRebuilds() != rebuilds+1 {
		t.Fatal("a full frame past shard 1's seq did not rebuild the merged bundle")
	}
	single := newEngine(d)
	single.Ingest(recs)
	single.Seal()
	want := v1Bodies(t, single)
	for ep, got := range v1Bodies(t, coord) {
		if !bytes.Equal(got, want[ep]) {
			t.Errorf("/v1/%s differs from single-node (%d vs %d bytes)", ep, len(got), len(want[ep]))
		}
	}
	t.Logf("%d installs, %d compactions", (len(parts[0])-first+batch-1)/batch, compactions)
}

// TestCoordinatorRefusesMisshapenBundle: a frame whose bundle is sized
// for another fleet's pot count, or disagrees on the country table, is
// refused by name before any of it is installed — one failed pull is
// counted, and neither the published snapshot nor the frames kept for
// the shard change.
func TestCoordinatorRefusesMisshapenBundle(t *testing.T) {
	d := dataset(t, 1)
	recs := d.Store.Records()
	coord := idleCoordinator(t)
	eng := newEngine(d)
	eng.Ingest(recs[:500])
	if err := coord.Install(0, shard.EncodePartialsFrame(eng)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		cfg        query.Config
	}{
		{"pots", "bundle sized for", query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: testPots + 1, Registry: d.Registry}},
		{"countries", "country-table presence", query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: testPots}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			other := query.New(tc.cfg)
			other.Ingest(recs[:1000]) // past the installed seq
			snap, held, stats := coord.Snapshot(), coord.HeldFrames(0), coord.PullStatsAll()[0]
			err := coord.Install(0, shard.EncodePartialsFrame(other))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("install: %v, want an error naming %q", err, tc.want)
			}
			if got := coord.PullStatsAll()[0]; got.Pulls != stats.Pulls+1 || got.Failures != stats.Failures+1 {
				t.Errorf("pull stats %+v after %+v, want one more pull, failed", got, stats)
			}
			if coord.Snapshot() != snap {
				t.Error("a refused frame changed the published snapshot")
			}
			if got := coord.HeldFrames(0); len(got) != len(held) || !bytes.Equal(got[0], held[0]) {
				t.Errorf("a refused frame changed the kept frames: %d frames, was %d", len(got), len(held))
			}
		})
	}
}
