package query_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"honeyfarm"
	"honeyfarm/internal/analysis"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/query"
	"honeyfarm/internal/wire"
)

const cutPots = 13

func cutFixture(t *testing.T) (*honeyfarm.Dataset, []*honeypot.SessionRecord) {
	t.Helper()
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 17, TotalSessions: 3000, Days: 40, NumPots: cutPots,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, d.Store.Records()
}

func cutEngine(d *honeyfarm.Dataset) *query.Engine {
	return query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: cutPots, Registry: d.Registry})
}

// replica is a puller's copy of one engine, kept current the way the
// merge coordinator keeps a shard's: a bundle from 0 replaces it, a
// bundle from the sequence it covers is merged in.
type replica struct {
	t     *testing.T
	parts *analysis.Partials
	seq   uint64
}

func (p *replica) apply(from, seq uint64, bundle []byte) {
	p.t.Helper()
	r := wire.NewReader(bundle)
	r.SetMaxStringLen(len(bundle))
	got, err := analysis.DecodePartials(r)
	if err != nil {
		p.t.Fatalf("bundle (%d, %d] does not decode: %v", from, seq, err)
	}
	switch {
	case from == 0:
		p.parts = got
	case from == p.seq:
		if err := p.parts.Merge(got); err != nil {
			p.t.Fatal(err)
		}
	default:
		p.t.Fatalf("bundle from %d offered to a replica at %d", from, p.seq)
	}
	p.seq = seq
}

// same reports whether the replica re-encodes to exactly the engine's
// own full encoding, at the same sequence.
func (p *replica) same(eng *query.Engine) bool {
	want, got := wire.NewBuilder(1<<10), wire.NewBuilder(1<<10)
	seq, _ := eng.EncodePartials(want)
	p.parts.Encode(got)
	return seq == p.seq && bytes.Equal(want.Bytes(), got.Bytes())
}

// TestCutPartialsReplay: over random interleavings of Ingest with cuts
// whose since matches the previous cut, is stale, or is absent — some
// of whose answers the puller never receives — replaying the answers
// it does receive reproduces the engine's full bundle byte for byte.
func TestCutPartialsReplay(t *testing.T) {
	d, recs := cutFixture(t)
	fulls, deltas := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := cutEngine(d)
		rep := &replica{t: t, parts: analysis.NewPartials(cutPots, nil, true)}
		// A head start, so that most cuts find pending under the drop rule.
		fed := rng.Intn(1000)
		eng.Ingest(recs[:fed])
		for step := 0; step < 60; step++ {
			if n := rng.Intn(120); rng.Intn(3) > 0 && fed+n <= len(recs) {
				eng.Ingest(recs[fed : fed+n])
				fed += n
				continue
			}
			since, held := rep.seq, true
			switch rng.Intn(5) {
			case 0:
				held = false
			case 1:
				since += 1 + uint64(rng.Intn(50))
			case 2:
				since /= 2
			}
			b := wire.NewBuilder(1 << 10)
			from, seq, _ := eng.CutPartials(b, since, held)
			if from != 0 && (!held || from != since) {
				t.Errorf("since=%d held=%v answered from %d", since, held, from)
				return false
			}
			if rng.Intn(4) == 0 || (from != 0 && from != rep.seq) {
				continue // the response was lost, or a lying since was taken at its word
			}
			if from != 0 {
				deltas++
			} else {
				fulls++
			}
			rep.apply(from, seq, b.Bytes())
			if !rep.same(eng) {
				t.Errorf("seed %d step %d: replica at %d diverges after (%d, %d]", seed, step, rep.seq, from, seq)
				return false
			}
		}
		b := wire.NewBuilder(1 << 10)
		from, seq, _ := eng.CutPartials(b, rep.seq, true)
		rep.apply(from, seq, b.Bytes())
		return rep.same(eng) && seq == uint64(fed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if fulls == 0 || deltas == 0 {
		t.Errorf("replayed %d full and %d delta bundles; the property needs both", fulls, deltas)
	}
	t.Logf("replayed %d full and %d delta bundles", fulls, deltas)
}

// TestCutPartialsDropRule: a puller that cut once and went away stops
// costing memory — pending is released once it holds more than half as
// many clients as the main bundle — and whoever pulls next, even with
// the matching since, gets the full bundle.
func TestCutPartialsDropRule(t *testing.T) {
	d, recs := cutFixture(t)
	eng := cutEngine(d)
	rep := &replica{t: t, parts: analysis.NewPartials(cutPots, nil, true)}
	eng.Ingest(recs[:400])
	if n := eng.PendingEntries(); n != 0 {
		t.Fatalf("un-pulled engine holds %d pending entries", n)
	}
	b := wire.NewBuilder(1 << 10)
	from, seq, _ := eng.CutPartials(b, 0, false)
	rep.apply(from, seq, b.Bytes())

	eng.Ingest(recs[400:450])
	if n := eng.PendingEntries(); n == 0 {
		t.Fatal("nothing pending right after a cut")
	}
	for off := 450; off < len(recs); off += 50 {
		eng.Ingest(recs[off:min(off+50, len(recs))])
	}
	if n := eng.PendingEntries(); n != 0 {
		t.Fatalf("pending still holds %d entries with the puller gone", n)
	}
	b.Reset()
	from, seq, _ = eng.CutPartials(b, rep.seq, true)
	if from != 0 {
		t.Fatalf("pull after the drop answered a delta from %d", from)
	}
	rep.apply(from, seq, b.Bytes())
	if !rep.same(eng) || seq != uint64(len(recs)) {
		t.Fatalf("replica at %d diverges from the engine at %d", rep.seq, seq)
	}
}

func released(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestNewsWake: a waiter registered at the engine's sequence is
// released by the next Ingest and by nothing else — not a Seal, not a
// cut — however those interleave; one registered at any other sequence
// does not wait at all.
func TestNewsWake(t *testing.T) {
	d, recs := cutFixture(t)
	eng := cutEngine(d)
	if !released(eng.News(1)) {
		t.Fatal("News(1) on an empty engine waits: the engine is not at 1")
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() { // sealing and cutting all the while
		defer close(done)
		for b := wire.NewBuilder(1 << 10); ; b.Reset() {
			select {
			case <-stop:
				return
			default:
			}
			eng.Seal()
			eng.CutPartials(b, eng.Seq(), true)
		}
	}()
	for i, r := range recs[:500] {
		since := eng.Seq()
		first, second := eng.News(since), eng.News(since)
		eng.Seal()
		if released(first) || released(second) {
			t.Fatalf("round %d: waiter at %d released with nothing ingested", i, since)
		}
		woken := make(chan struct{})
		go func() { <-first; <-second; close(woken) }()
		eng.Ingest([]*honeypot.SessionRecord{r})
		<-woken // a lost wake-up hangs here, and the test times out
		if !released(eng.News(since)) {
			t.Fatalf("round %d: News(%d) waits with the engine at %d", i, since, eng.Seq())
		}
	}
	close(stop)
	<-done
}

// TestNewsFreeWhenUnused: with nobody waiting the wait primitive is one
// nil test in Ingest — a batch that touches no new row allocates
// nothing, as it did before there was one, also after waiters have come
// and gone — and asking about a sequence the engine is not at allocates
// nothing either.
func TestNewsFreeWhenUnused(t *testing.T) {
	d, recs := cutFixture(t)
	eng := cutEngine(d)
	eng.Ingest(recs[:100])
	batch := recs[:1]
	if a := testing.AllocsPerRun(200, func() { eng.Ingest(batch) }); a != 0 {
		t.Errorf("Ingest allocates %v times per call on an engine nothing waited on", a)
	}
	for i := 0; i < 3; i++ {
		ch := eng.News(eng.Seq())
		eng.Ingest(batch)
		<-ch
	}
	if a := testing.AllocsPerRun(200, func() { eng.Ingest(batch) }); a != 0 {
		t.Errorf("Ingest allocates %v times per call after waiters came and went", a)
	}
	if a := testing.AllocsPerRun(200, func() { eng.News(0) }); a != 0 {
		t.Errorf("News at another sequence allocates %v times", a)
	}
}
