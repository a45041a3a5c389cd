package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
)

const testPots = 37

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitGoroutines fails the test if the goroutine count does not settle
// back to the baseline (small slack for runtime helpers).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	dataOnce sync.Once
	dataSets map[int]*honeyfarm.Dataset
)

// dataset memoizes the generated test datasets per worker count; the
// dataset is deterministic, so sharing it across tests is safe.
func dataset(t *testing.T, workers int) *honeyfarm.Dataset {
	t.Helper()
	dataOnce.Do(func() { dataSets = map[int]*honeyfarm.Dataset{} })
	if d, ok := dataSets[workers]; ok {
		return d
	}
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 11, TotalSessions: 4000, Days: 60, NumPots: testPots, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	dataSets[workers] = d
	return d
}

// partition returns the records shard i of n owns: HoneypotID % n == i,
// the same rule cmd/shard applies.
func partition(recs []*honeypot.SessionRecord, n, i int) []*honeypot.SessionRecord {
	var out []*honeypot.SessionRecord
	for _, r := range recs {
		if ((r.HoneypotID%n)+n)%n == i {
			out = append(out, r)
		}
	}
	return out
}

func newEngine(d *honeyfarm.Dataset) *query.Engine {
	return query.New(query.Config{
		Epoch: honeyfarm.DefaultEpoch, NumPots: testPots,
		Registry: d.Registry,
	})
}

// testShard is one collector shard under test: an engine served over a
// real TCP listener, killable and restartable at the same address.
type testShard struct {
	t      *testing.T
	engine *query.Engine
	addr   string

	mu  sync.Mutex
	srv *http.Server
}

// startShard binds a fresh shard on an ephemeral port.
func startShard(t *testing.T, eng *query.Engine) *testShard {
	t.Helper()
	s := &testShard{t: t, engine: eng}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	s.serve(ln, shard.NewHandler(eng))
	return s
}

func (s *testShard) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
}

func (s *testShard) url() string { return "http://" + s.addr }

// kill closes the listener and severs every live connection — the
// in-process equivalent of SIGKILL plus connection resets.
func (s *testShard) kill() {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// restart rebinds at the same address, serving h (the restarted
// shard's handler — typically over a fresh engine that replays from
// scratch, so its sequence climbs from zero again).
func (s *testShard) restart(h http.Handler) {
	s.t.Helper()
	var ln net.Listener
	var err error
	// The freed port can take a moment to rebind.
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", s.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		s.t.Fatalf("rebinding %s: %v", s.addr, err)
	}
	s.serve(ln, h)
}

// startCoordinator builds a coordinator over the shard URLs with a
// fast pull cadence and aggressive probing, suitable for tests.
func startCoordinator(t *testing.T, urls []string, client *http.Client) *shard.Coordinator {
	t.Helper()
	return coordinatorEvery(t, 5*time.Millisecond, client, urls...)
}

// coordinatorEvery is startCoordinator at a PullEvery of the test's
// choosing.
func coordinatorEvery(t *testing.T, every time.Duration, client *http.Client, urls ...string) *shard.Coordinator {
	t.Helper()
	coord, err := shard.New(shard.Config{
		Shards:    urls,
		NumPots:   testPots,
		Countries: true,
		Epoch:     honeyfarm.DefaultEpoch,
		PullEvery: every,
		FailAfter: 2,
		Client:    client,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestShardedSnapshotEquivalence extends the snapshot-equivalence
// contract to N nodes: the merged snapshot over N shard partitions is
// byte-identical (after JSON encoding) to a single-node engine over
// the full record stream — for N ∈ {1, 2, 4} and either generation
// worker count, whether the coordinator meets shards that already hold
// everything (one full pull each) or ones still being fed (a full pull,
// then deltas).
func TestShardedSnapshotEquivalence(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 7} {
		d := dataset(t, workers)
		recs := d.Store.Records()
		single := newEngine(d)
		single.Ingest(recs)
		want := mustJSON(t, single.Seal())

		for _, n := range []int{1, 2, 4} {
			client := &http.Client{Timeout: 5 * time.Second}
			shards := make([]*testShard, n)
			urls := make([]string, n)
			for i := 0; i < n; i++ {
				eng := newEngine(d)
				eng.Ingest(partition(recs, n, i))
				eng.Seal()
				shards[i] = startShard(t, eng)
				urls[i] = shards[i].url()
			}
			coord := startCoordinator(t, urls, client)
			waitFor(t, 15*time.Second, func() bool {
				return coord.Snapshot().Seq == uint64(len(recs))
			}, "merged snapshot to reach full sequence")
			if got := mustJSON(t, coord.Snapshot()); !bytes.Equal(got, want) {
				t.Errorf("workers=%d n=%d: merged snapshot differs from single-node (%d vs %d bytes)",
					workers, n, len(got), len(want))
			}
			if coord.Seq() != uint64(len(recs)) {
				t.Errorf("workers=%d n=%d: ingested seq %d, want %d", workers, n, coord.Seq(), len(recs))
			}
			coord.Stop()
			for _, s := range shards {
				s.kill()
			}
			client.CloseIdleConnections()
		}
		for _, n := range []int{1, 2, 4} {
			liveFeedEquivalence(t, d, n, want)
		}
	}
	waitGoroutines(t, base)
}

// liveFeedEquivalence feeds n shards while a 5 ms-cadence coordinator
// pulls them. Each shard starts with half its partition and gets the
// rest in small batches, the next one once the coordinator has
// installed the last — so pending never nears the drop rule and the
// path each pull takes is determined: one full frame per shard, deltas
// from then on, the merged bundle never rebuilt.
func liveFeedEquivalence(t *testing.T, d *honeyfarm.Dataset, n int, want []byte) {
	t.Helper()
	const batch = 25
	recs := d.Store.Records()
	client := &http.Client{Timeout: 5 * time.Second}
	engines := make([]*query.Engine, n)
	parts := make([][]*honeypot.SessionRecord, n)
	shards := make([]*testShard, n)
	urls := make([]string, n)
	for i := range shards {
		parts[i] = partition(recs, n, i)
		engines[i] = newEngine(d)
		engines[i].Ingest(parts[i][:len(parts[i])/2])
		shards[i] = startShard(t, engines[i])
		urls[i] = shards[i].url()
	}
	coord := startCoordinator(t, urls, client)

	var feeders sync.WaitGroup
	stop := make(chan struct{})
	var regressed atomic.Bool
	feeders.Add(1)
	go func() { // the published sequence only ever grows
		defer feeders.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			seq := coord.Snapshot().Seq
			if seq < last {
				regressed.Store(true)
			}
			last = seq
		}
	}()
	for i := range shards {
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			for off := len(parts[i]) / 2; off < len(parts[i]); off += batch {
				installed := func() bool { return coord.ShardStatuses()[i].LastSeq == uint64(off) }
				for !installed() {
					select {
					case <-stop:
						return
					case <-time.After(time.Millisecond):
					}
				}
				engines[i].Ingest(parts[i][off:min(off+batch, len(parts[i]))])
			}
		}()
	}
	ok := func() bool { return coord.Snapshot().Seq == uint64(len(recs)) }
	deadline := time.Now().Add(30 * time.Second)
	for !ok() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	feeders.Wait()
	if !ok() {
		t.Fatalf("live n=%d: merged snapshot at %d, want %d", n, coord.Snapshot().Seq, len(recs))
	}
	if got := mustJSON(t, coord.Snapshot()); !bytes.Equal(got, want) {
		t.Errorf("live n=%d: merged snapshot differs from single-node (%d vs %d bytes)", n, len(got), len(want))
	}
	if regressed.Load() {
		t.Errorf("live n=%d: published snapshot sequence regressed", n)
	}
	for i, ps := range coord.PullStatsAll() {
		if deltas := ps.Pulls - ps.Failures - ps.Full; ps.Full != 1 || deltas < 1 || ps.Failures != 0 {
			t.Errorf("live n=%d shard %d: %d full pulls, %d deltas, %d failures; want 1, ≥1, 0", n, i, ps.Full, deltas, ps.Failures)
		}
	}
	if r := coord.MergeRebuilds(); r != 0 {
		t.Errorf("live n=%d: merged bundle rebuilt %d times with no shard restarted", n, r)
	}
	coord.Stop()
	for _, s := range shards {
		s.kill()
	}
	client.CloseIdleConnections()
}

// TestCoordinatorLostResponse: a shard makes its cut and the connection
// resets mid-body, so the delta it cut is gone. The coordinator's next
// since no longer names the shard's cut, the answer is the full frame,
// it replaces the shard's bundle, the merged bundle is rebuilt — and
// deltas resume on top of it, byte-identical to a single node.
func TestCoordinatorLostResponse(t *testing.T) {
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	recs := d.Store.Records()
	parts := [][]*honeypot.SessionRecord{partition(recs, 2, 0), partition(recs, 2, 1)}
	engines := []*query.Engine{newEngine(d), newEngine(d)}
	fed := func() uint64 { return engines[0].Seq() + engines[1].Seq() }
	// Three feeds per shard, the later two small enough beside the first
	// that pending stays under the drop rule.
	feed := func(i, k int) {
		cuts := []int{0, len(parts[i]) * 3 / 5, len(parts[i]) * 4 / 5, len(parts[i])}
		engines[i].Ingest(parts[i][cuts[k]:cuts[k+1]])
	}
	feed(0, 0)
	feed(1, 0)

	var lose, lost atomic.Bool
	inner := shard.NewHandler(engines[1])
	lossy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !lose.CompareAndSwap(true, false) {
			inner.ServeHTTP(w, r)
			return
		}
		feed(1, 1) // so the answer about to be lost is not an empty delta
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r) // the cut is made
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		body := rec.Body.Bytes()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(body))
		_, _ = buf.Write(body[:len(body)/2])
		_ = buf.Flush()
		_ = conn.Close()
		lost.Store(true)
	})
	client := &http.Client{Timeout: 5 * time.Second}
	s0 := startShard(t, engines[0])
	s1 := startShard(t, engines[1])
	s1.kill()
	s1.restart(lossy)
	coord := startCoordinator(t, []string{s0.url(), s1.url()}, client)
	converged := func() bool { return coord.Snapshot().Seq == fed() }
	waitFor(t, 10*time.Second, converged, "first contact")

	feed(0, 1)
	lose.Store(true)
	waitFor(t, 10*time.Second, func() bool { return lost.Load() && converged() }, "catch-up after the lost response")
	ps := coord.PullStatsAll()
	if ps[1].Failures != 1 || ps[1].Full != 2 || ps[0].Full != 1 || coord.MergeRebuilds() != 1 {
		t.Errorf("after one lost response: pulls %+v, %d rebuilds; want 1 failure and a second full pull on shard 1 only, 1 rebuild",
			ps, coord.MergeRebuilds())
	}

	feed(0, 2)
	feed(1, 2)
	waitFor(t, 10*time.Second, converged, "deltas on top of the rebuilt bundle")
	single := newEngine(d)
	single.Ingest(recs)
	if got, want := mustJSON(t, coord.Snapshot()), mustJSON(t, single.Seal()); !bytes.Equal(got, want) {
		t.Errorf("merged snapshot differs from single-node (%d vs %d bytes)", len(got), len(want))
	}
	if ps := coord.PullStatsAll(); ps[1].Full != 2 || coord.MergeRebuilds() != 1 {
		t.Errorf("deltas did not resume: pulls %+v, %d rebuilds", ps, coord.MergeRebuilds())
	}
	coord.Stop()
	s0.kill()
	s1.kill()
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestPartialsRefusesOtherVersion: a shard one release behind answers
// in partials wire v1. Every such pull fails by name (pull-failure
// counter, last_err), nothing of it is installed, and the merge node
// goes on serving its last merged snapshot; the moment the shard speaks
// this version again a single full pull heals it — the refused pulls
// moved the shard's cut, so whatever since says the answer is full.
func TestPartialsRefusesOtherVersion(t *testing.T) {
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	recs := d.Store.Records()
	eng := newEngine(d)
	eng.Ingest(recs[:2000])

	v1, err := os.ReadFile(v1BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	var old atomic.Bool
	var feedMore sync.Once
	inner := shard.NewHandler(eng)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !old.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		// The shard keeps collecting and makes its cut as ever.
		feedMore.Do(func() { eng.Ingest(recs[2000:2500]) })
		inner.ServeHTTP(httptest.NewRecorder(), r)
		_, _ = w.Write(shard.EncodeFrame(0, eng.Seq(), 60, v1))
	})
	client := &http.Client{Timeout: 5 * time.Second}
	s := startShard(t, eng)
	s.kill()
	s.restart(handler)
	coord := startCoordinator(t, []string{s.url()}, client)
	waitFor(t, 10*time.Second, func() bool { return coord.Snapshot().Seq == 2000 }, "first contact")
	before := mustJSON(t, coord.Snapshot())

	old.Store(true)
	waitFor(t, 10*time.Second, func() bool { return coord.PullStatsAll()[0].Failures >= 3 }, "refused pulls")
	st := coord.ShardStatuses()[0]
	if st.LastSeq != 2000 || !strings.Contains(st.LastErr, "version 1, want 2") {
		t.Errorf("after refused pulls: installed seq %d, last_err %q; want 2000 and both versions named", st.LastSeq, st.LastErr)
	}
	if !bytes.Equal(mustJSON(t, coord.Snapshot()), before) {
		t.Error("merged snapshot changed while every pull was refused")
	}
	api := query.NewServer(query.ServerConfig{Source: coord, Shards: coord.ShardStatuses})
	metrics := string(shard.BuildMergeRegistry(coord, api, testPots, nil).Render())
	if strings.Contains(metrics, `honeyfarm_shard_pull_failures_total{shard="0"} 0`+"\n") ||
		!strings.Contains(metrics, `honeyfarm_shard_last_seq{shard="0"} 2000`+"\n") {
		t.Errorf("metrics do not show the refused pulls:\n%s", metrics)
	}
	if code, body := healthz(t, api); code != http.StatusServiceUnavailable || !strings.Contains(body, "version 1, want 2") {
		t.Errorf("healthz %d %s, want the shard reported degraded with the version error", code, body)
	}

	fullBefore := coord.PullStatsAll()[0].Full
	old.Store(false)
	waitFor(t, 10*time.Second, func() bool { return coord.Snapshot().Seq == 2500 }, "heal")
	if ps := coord.PullStatsAll()[0]; ps.Full != fullBefore+1 {
		t.Errorf("healing took %d full pulls, want 1", ps.Full-fullBefore)
	}
	single := newEngine(d)
	single.Ingest(recs[:2500])
	if got, want := mustJSON(t, coord.Snapshot()), mustJSON(t, single.Seal()); !bytes.Equal(got, want) {
		t.Errorf("healed snapshot differs from single-node (%d vs %d bytes)", len(got), len(want))
	}
	if st := coord.ShardStatuses()[0]; !st.Up || st.LastErr != "" {
		t.Errorf("healed shard still reported %+v", st)
	}
	coord.Stop()
	s.kill()
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestCoordinatorEmptySnapshot: before any shard contact the merged
// snapshot is byte-identical to a freshly created engine's — readers
// of a cold merge node see the same empty tables a cold single node
// serves.
func TestCoordinatorEmptySnapshot(t *testing.T) {
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	coord := startCoordinator(t, []string{"http://127.0.0.1:1"}, &http.Client{Timeout: time.Second})
	got := mustJSON(t, coord.Snapshot())
	want := mustJSON(t, newEngine(d).Snapshot())
	if !bytes.Equal(got, want) {
		t.Errorf("empty merged snapshot differs from empty engine:\n%s\nvs\n%s", got, want)
	}
	coord.Stop()
	waitGoroutines(t, base)
}
