package shard_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
)

// healthz renders /v1/healthz through the real query server wired to
// the coordinator, returning the HTTP status and body.
func healthz(t *testing.T, api *query.Server) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	api.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// feedSlowly folds recs into eng in small batches until done or
// stopped, so the coordinator observes a climbing sequence.
func feedSlowly(eng *query.Engine, recs []*honeypot.SessionRecord, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	const batch = 100
	for off := 0; off < len(recs); {
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
		end := off + batch
		if end > len(recs) {
			end = len(recs)
		}
		eng.Ingest(recs[off:end])
		off = end
	}
	eng.Seal()
}

// TestCoordinatorChaos runs the full degradation story under -race: a
// shard is killed mid-pull (connection resets included), the merge
// keeps publishing from the healthy shards, /v1/healthz degrades to
// "degraded:shard", the snapshot sequence never regresses, the shard
// restarts at the same address with a fresh engine that re-feeds from
// zero (exercising the monotonic install guard during catch-up), and
// the merge re-converges to a snapshot byte-identical to a single-node
// run before healthz returns to "ok".
func TestCoordinatorChaos(t *testing.T) {
	base := runtime.NumGoroutine()
	d := dataset(t, 7)
	recs := d.Store.Records()
	total := uint64(len(recs))

	single := newEngine(d)
	single.Ingest(recs)
	want := mustJSON(t, single.Seal())

	const n = 3
	client := &http.Client{Timeout: 5 * time.Second}
	parts := make([][]*honeypot.SessionRecord, n)
	engines := make([]*query.Engine, n)
	shards := make([]*testShard, n)
	urls := make([]string, n)
	feedStop := make(chan struct{})
	feedDone := make([]chan struct{}, n)
	for i := 0; i < n; i++ {
		parts[i] = partition(recs, n, i)
		engines[i] = newEngine(d)
		shards[i] = startShard(t, engines[i])
		urls[i] = shards[i].url()
		feedDone[i] = make(chan struct{})
		go feedSlowly(engines[i], parts[i], feedStop, feedDone[i])
	}
	coord := startCoordinator(t, urls, client)
	api := query.NewServer(query.ServerConfig{Source: coord, Shards: coord.ShardStatuses})

	// Monitor: the published sequence must be monotonic through kill,
	// degradation, and catch-up.
	var monStop, monDone = make(chan struct{}), make(chan struct{})
	var regressed atomic.Bool
	go func() {
		defer close(monDone)
		var last uint64
		for running := true; running; {
			select {
			case <-monStop:
				running = false
				continue
			case <-time.After(time.Millisecond):
			}
			seq := coord.Snapshot().Seq
			if seq < last {
				regressed.Store(true)
			}
			last = seq
		}
	}()

	// Let the merge make real progress, then kill shard 0 mid-pull.
	waitFor(t, 10*time.Second, func() bool {
		return coord.Snapshot().Seq > total/8
	}, "initial merge progress")
	shards[0].kill()

	// The coordinator marks the shard down after FailAfter consecutive
	// failures and healthz degrades — while the snapshot keeps serving.
	waitFor(t, 10*time.Second, func() bool {
		for _, st := range coord.ShardStatuses() {
			if st.URL == urls[0] {
				return !st.Up
			}
		}
		return false
	}, "shard 0 to be marked down")
	if code, body := healthz(t, api); code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded:shard") {
		t.Errorf("healthz with a down shard = %d %q, want 503 degraded:shard", code, body)
	}
	if coord.Snapshot() == nil {
		t.Fatal("snapshot unpublished while degraded")
	}

	// Healthy shards finish feeding while shard 0 is down.
	<-feedDone[1]
	<-feedDone[2]

	// Restart at the same address with a fresh engine: its sequence
	// restarts from zero and climbs — the monotonic guard must hold the
	// coordinator's installed state until the replay passes it.
	engines[0] = newEngine(d)
	refeedDone := make(chan struct{})
	shards[0].restart(shard.NewHandler(engines[0]))
	go feedSlowly(engines[0], parts[0], feedStop, refeedDone)

	// Re-convergence: full sequence, byte-identical to single-node.
	waitFor(t, 30*time.Second, func() bool {
		return coord.Snapshot().Seq == total
	}, "re-convergence to the full sequence")
	if got := mustJSON(t, coord.Snapshot()); !bytes.Equal(got, want) {
		t.Errorf("re-converged snapshot differs from single-node (%d vs %d bytes)", len(got), len(want))
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, st := range coord.ShardStatuses() {
			if !st.Up {
				return false
			}
		}
		return true
	}, "all shards healthy again")
	if code, body := healthz(t, api); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthz after recovery = %d %q, want 200 ok", code, body)
	}
	if regressed.Load() {
		t.Error("published snapshot sequence regressed")
	}

	close(monStop)
	<-monDone
	close(feedStop)
	<-feedDone[0]
	<-refeedDone
	coord.Stop()
	for _, s := range shards {
		s.kill()
	}
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestCoordinatorStaleFrameKeepsShardHealthy: a shard that answers
// pulls but stops advancing (its engine is sealed and idle) stays Up —
// staleness of content is not failure of the shard.
func TestCoordinatorStaleFrameKeepsShardHealthy(t *testing.T) {
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	recs := d.Store.Records()
	eng := newEngine(d)
	eng.Ingest(recs[:500])
	eng.Seal()
	client := &http.Client{Timeout: time.Second}
	s := startShard(t, eng)
	coord := startCoordinator(t, []string{s.url()}, client)
	waitFor(t, 10*time.Second, func() bool {
		return coord.Snapshot().Seq == 500
	}, "merge of the idle shard")
	// Several pull cycles later the shard must still be healthy and the
	// installed state unchanged.
	time.Sleep(50 * time.Millisecond)
	sts := coord.ShardStatuses()
	if len(sts) != 1 || !sts[0].Up || sts[0].Failures != 0 {
		t.Errorf("idle shard status = %+v, want Up with zero failures", sts)
	}
	if got := coord.Snapshot().Seq; got != 500 {
		t.Errorf("seq drifted to %d on an idle shard", got)
	}
	coord.Stop()
	s.kill()
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestCoordinatorProbeBackoff: the puller is the shard's supervisor. An
// unreachable shard is marked down after FailAfter failed pulls, and
// from then on is pulled a growing backoff step apart (25ms, 50ms, …),
// not every PullEvery; the first pull that reaches it again marks it
// up, and Stop cuts a pending backoff short.
func TestCoordinatorProbeBackoff(t *testing.T) {
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	eng := newEngine(d)
	eng.Ingest(d.Store.Records()[:500])
	client := &http.Client{Timeout: time.Second}
	s := startShard(t, eng)
	coord := startCoordinator(t, []string{s.url()}, client) // PullEvery 5ms, FailAfter 2
	up := func() bool { return coord.ShardStatuses()[0].Up }
	waitFor(t, 10*time.Second, func() bool { return coord.Seq() == 500 }, "first contact")

	s.kill()
	waitFor(t, 5*time.Second, func() bool { return !up() }, "the shard marked down")
	const window = 400 * time.Millisecond
	before := coord.PullStatsAll()[0].Pulls
	time.Sleep(window)
	// Steps 25+50+100+200ms fit four pulls in the window; PullEvery
	// would fit eighty.
	if n := coord.PullStatsAll()[0].Pulls - before; n < 2 || n > 8 {
		t.Errorf("%d pulls of a down shard in %v, want 2..8 on the backoff", n, window)
	}

	s.restart(shard.NewHandler(eng))
	waitFor(t, 5*time.Second, up, "the shard back up")
	if st := coord.ShardStatuses()[0]; st.Failures != 0 || st.LastSeq != 500 {
		t.Errorf("recovered shard status = %+v, want no failures at seq 500", st)
	}

	s.kill()
	// Seven failures put the next pull 800ms out (step 5).
	waitFor(t, 5*time.Second, func() bool { return coord.ShardStatuses()[0].Failures >= 7 }, "a long backoff step")
	start := time.Now()
	coord.Stop()
	if took := time.Since(start); took > 400*time.Millisecond {
		t.Errorf("Stop took %v with a backoff step pending", took)
	}
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}
