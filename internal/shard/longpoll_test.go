package shard_test

// The blocking pull's edges: what parks, what wakes it, and what keeps
// the puller from spinning when nothing does.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
)

// countedShard serves a shard handler and counts the pulls it sees.
type countedShard struct {
	*httptest.Server
	requests, inFlight, maxInFlight atomic.Int64
}

// serveCounted serves eng's pull API; ignoreWait makes it the shard of
// the release before, which answers every pull at once.
func serveCounted(eng *query.Engine, ignoreWait bool) *countedShard {
	s := &countedShard{}
	inner := shard.NewHandler(eng)
	s.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		n := s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		for m := s.maxInFlight.Load(); n > m && !s.maxInFlight.CompareAndSwap(m, n); m = s.maxInFlight.Load() {
		}
		if ignoreWait {
			q := r.URL.Query()
			q.Del("wait")
			r.URL.RawQuery = q.Encode()
		}
		inner.ServeHTTP(w, r)
	}))
	return s
}

// spacedPulls is the most pulls a loop may start in d when none of them
// brings news: one per PullEvery, and the one under way when d began.
func spacedPulls(d, every time.Duration) int64 { return int64((d+every-1)/every) + 1 }

// TestBlockingPullIdle: a shard with nothing new is asked once per
// PullEvery — whether it parks the pull for that long or, a release
// behind, ignores wait and answers at once — and every such pull is
// counted idle.
func TestBlockingPullIdle(t *testing.T) {
	const every = 30 * time.Millisecond
	d := dataset(t, 1)
	for _, tc := range []struct {
		name       string
		ignoreWait bool
	}{{"parked", false}, {"old shard answers at once", true}} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			eng := newEngine(d)
			eng.Ingest(d.Store.Records()[:500])
			s := serveCounted(eng, tc.ignoreWait)
			client := &http.Client{Timeout: 5 * time.Second}
			coord := coordinatorEvery(t, every, client, s.URL)
			waitFor(t, 5*time.Second, func() bool { return coord.Snapshot().Seq == 500 }, "first contact")

			start, before := time.Now(), s.requests.Load()
			time.Sleep(10 * every)
			seen, window := s.requests.Load()-before, time.Since(start)
			if seen < 3 || seen > spacedPulls(window, every) {
				t.Errorf("%d pulls of an idle shard in %v at PullEvery %v, want 3 to %d", seen, window, every, spacedPulls(window, every))
			}
			coord.Stop()
			if ps := coord.PullStatsAll()[0]; ps.Full != 1 || ps.Failures != 0 || ps.Idle != ps.Pulls-1 {
				t.Errorf("pulls %+v: want one full frame and every other pull idle", ps)
			}
			s.Close()
			client.CloseIdleConnections()
			waitGoroutines(t, base)
		})
	}
}

// TestBlockingPullNotCadenceBound: PullEvery is seconds, yet a batch
// is in the merged view a round trip after it is ingested, and Stop
// does not wait for the pull parked at the shard.
func TestBlockingPullNotCadenceBound(t *testing.T) {
	const every, prompt = 2 * time.Second, 500 * time.Millisecond
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	recs := d.Store.Records()
	eng := newEngine(d)
	eng.Ingest(recs[:500])
	s := serveCounted(eng, false)
	client := &http.Client{} // no timeout: the wait asked for is PullEvery whole
	coord := coordinatorEvery(t, every, client, s.URL)
	waitFor(t, 2*every, func() bool { return coord.Snapshot().Seq == 500 }, "first contact")

	eng.Ingest(recs[500:525])
	waitFor(t, prompt, func() bool { return coord.Snapshot().Seq == 525 }, "the batch in the merged view")
	waitFor(t, prompt, func() bool { return s.inFlight.Load() == 1 }, "the next pull to park")

	stopped := time.Now()
	coord.Stop()
	if took := time.Since(stopped); took > prompt {
		t.Errorf("Stop took %v with a pull parked for up to %v", took, every)
	}
	if ps := coord.PullStatsAll()[0]; ps.Pulls != 2 || ps.Failures != 0 {
		t.Errorf("pulls %+v: want the full frame and one delta, the abandoned pull not a failure", ps)
	}
	s.Close()
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestBlockingPullAbandoned: a parked pull whose client goes away ends
// without making a cut, so the puller's next pull from the same since
// is still answered with a delta.
func TestBlockingPullAbandoned(t *testing.T) {
	d := dataset(t, 1)
	recs := d.Store.Records()
	eng := newEngine(d)
	eng.Ingest(recs[:400])
	left := make(chan struct{}, 1)
	inner := shard.NewHandler(eng)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		if r.URL.Query().Has("wait") {
			left <- struct{}{}
		}
	}))
	defer srv.Close()
	pull(t, srv, "") // the cut at 400

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+shard.PartialsPath+"?since=400&wait=1h", nil)
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	select {
	case err := <-gone:
		t.Fatalf("an up-to-date pull with wait=1h was answered at once (%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("cancelled pull got an answer")
	}
	select {
	case <-left:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still parked after its client left")
	}
	eng.Ingest(recs[400:450])
	if from, seq, _ := pull(t, srv, "?since=400"); from != 400 || seq != 450 {
		t.Errorf("pull after an abandoned one: (%d, %d], want the delta (400, 450]", from, seq)
	}
}

// TestBlockingPullTwoPullers: two coordinators on one shard move each
// other's cut. Each still converges on the single-node bytes, and
// neither outruns what clocks it: a pull that brings news needs an
// ingest to have happened, every other pull — the full frames they cost
// each other among them — is spaced by PullEvery.
func TestBlockingPullTwoPullers(t *testing.T) {
	const every = 20 * time.Millisecond
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	recs := d.Store.Records()
	eng := newEngine(d)
	eng.Ingest(recs[:2000])
	s := serveCounted(eng, false)
	client := &http.Client{Timeout: 5 * time.Second}
	coords := []*shard.Coordinator{coordinatorEvery(t, every, client, s.URL), coordinatorEvery(t, every, client, s.URL)}
	start, ingests := time.Now(), int64(0)
	for off := 2000; off < len(recs); off += 10 {
		eng.Ingest(recs[off:min(off+10, len(recs))])
		ingests++
		time.Sleep(2 * time.Millisecond)
	}
	single := newEngine(d)
	single.Ingest(recs)
	want := mustJSON(t, single.Seal())
	for i, coord := range coords {
		waitFor(t, 10*time.Second, func() bool { return coord.Snapshot().Seq == uint64(len(recs)) }, "convergence")
		window := time.Since(start)
		coord.Stop()
		if got := mustJSON(t, coord.Snapshot()); !bytes.Equal(got, want) {
			t.Errorf("puller %d: merged snapshot differs from single-node (%d vs %d bytes)", i, len(got), len(want))
		}
		// First contact is the one full frame followed at once.
		ps, spaced := coord.PullStatsAll()[0], spacedPulls(window, every)+1
		if int64(ps.Full) > spaced || int64(ps.Pulls) > ingests+spaced || ps.Failures != 0 {
			t.Errorf("puller %d: %+v over %d ingests in %v; want at most %d full frames and %d pulls, no failures",
				i, ps, ingests, window, spaced, ingests+spaced)
		}
	}
	s.Close()
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestBlockingPullStorm: single-record batches at 2,000 a second per
// shard. The puller clocks itself — never a second pull of a shard in
// flight, installs coalesced so the view is published no more often
// than pulled — and the merged view only moves forward, to the
// single-node bytes.
func TestBlockingPullStorm(t *testing.T) {
	const n, preload, gap = 2, 500, 500 * time.Microsecond
	base := runtime.NumGoroutine()
	d := dataset(t, 1)
	recs := d.Store.Records()
	client := &http.Client{Timeout: 5 * time.Second}
	shards := make([]*countedShard, n)
	urls := make([]string, n)
	var feeders sync.WaitGroup
	release := make(chan struct{})
	for i := range shards {
		part, eng := partition(recs, n, i), newEngine(d)
		eng.Ingest(part[:preload])
		shards[i] = serveCounted(eng, false)
		urls[i] = shards[i].URL
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			<-release
			start := time.Now()
			for k := preload; k < len(part); k++ {
				time.Sleep(time.Until(start.Add(time.Duration(k-preload) * gap)))
				eng.Ingest(part[k : k+1])
			}
		}()
	}
	coord := coordinatorEvery(t, 250*time.Millisecond, client, urls...)
	waitFor(t, 5*time.Second, func() bool { return coord.Snapshot().Seq == n*preload }, "first contact")
	close(release)

	var last uint64
	views := 1
	for deadline := time.Now().Add(30 * time.Second); last < uint64(len(recs)) && time.Now().Before(deadline); {
		seq := coord.Snapshot().Seq
		if seq < last {
			t.Fatalf("published sequence went back from %d to %d", last, seq)
		}
		if seq > last {
			views++
		}
		last = seq
		time.Sleep(100 * time.Microsecond)
	}
	feeders.Wait()
	coord.Stop()
	if last != uint64(len(recs)) {
		t.Fatalf("merged view at %d, want %d", last, len(recs))
	}
	single := newEngine(d)
	single.Ingest(recs)
	if got, want := mustJSON(t, coord.Snapshot()), mustJSON(t, single.Seal()); !bytes.Equal(got, want) {
		t.Errorf("merged snapshot differs from single-node (%d vs %d bytes)", len(got), len(want))
	}
	var pulls uint64
	for i, ps := range coord.PullStatsAll() {
		pulls += ps.Pulls
		if m := shards[i].maxInFlight.Load(); m != 1 || ps.Failures != 0 {
			t.Errorf("shard %d: %d pulls in flight at once, %+v; want 1 and no failures", i, m, ps)
		}
	}
	if uint64(views) > pulls {
		t.Errorf("%d distinct views published by %d pulls", views, pulls)
	}
	t.Logf("%d records in single-record batches: %d pulls, >= %d views", len(recs)-n*preload, pulls, views)
	for _, s := range shards {
		s.Close()
	}
	client.CloseIdleConnections()
	waitGoroutines(t, base)
}
