package query

import (
	"fmt"
	"sync"
	"time"

	"honeyfarm/internal/wal"
)

// Follower tails a WAL directory into an Engine: the durable batches
// already on disk first (sealed segments, then the active segment's
// intact prefix), then whatever the writer appends while the follower
// runs. It is the serving path for a farm in another process — cmd/
// shard writes its WAL, cmd/serve follows it live.
//
// After every drain cycle that made progress the follower seals a
// snapshot, so the published view always corresponds to a durable
// prefix of the log. A corruption error from the iterator is terminal:
// the follower records it, keeps the last good snapshot published, and
// stops advancing.
type Follower struct {
	engine *Engine
	it     *wal.Iterator
	poll   time.Duration

	done    chan struct{}
	stopped chan struct{}

	mu  sync.Mutex
	err error
}

// maxBatchesPerDrain caps one drain cycle; a longer backlog is simply
// drained over consecutive cycles.
const maxBatchesPerDrain = 1 << 16

// NewFollower creates a follower that feeds engine from the WAL in
// dir, polling every poll (default 200ms) once caught up. The engine's
// epoch must match the WAL's; a mismatch is reported as a follower
// error on the first drained meta frame.
func NewFollower(engine *Engine, dir string, poll time.Duration) (*Follower, error) {
	it, err := wal.NewIterator(dir)
	if err != nil {
		return nil, err
	}
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	return &Follower{
		engine:  engine,
		it:      it,
		poll:    poll,
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}, nil
}

// Start launches the tail loop. Call Stop exactly once afterwards.
func (f *Follower) Start() {
	go f.run()
}

// Stop signals the loop, waits for it to exit, closes the iterator,
// and returns the first error the follower hit (nil for a clean tail).
func (f *Follower) Stop() error {
	close(f.done)
	<-f.stopped
	f.it.Close()
	return f.Err()
}

// Err returns the first terminal error, or nil.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Position returns the iterator's cursor (segment sequence and byte
// offset) for observability.
func (f *Follower) Position() (seq uint64, off int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.it.Pos()
}

// WALGaps returns the degraded-mode outage records the tail has crossed
// so far, in log order — the read side's view of what a degraded writer
// counted and dropped. The serving layer folds these into /v1/healthz.
func (f *Follower) WALGaps() []wal.Gap {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.it.Gaps()
}

// run is the tail loop: drain, seal on progress, pause, repeat — until
// Stop or a terminal error.
func (f *Follower) run() {
	defer close(f.stopped)
	timer := time.NewTimer(f.poll)
	defer timer.Stop()
	for running := true; running; {
		progressed, err := f.drain()
		if err != nil {
			f.mu.Lock()
			f.err = err
			f.mu.Unlock()
			// Terminal: keep the last good snapshot published, wait for Stop.
			<-f.done
			return
		}
		if progressed {
			f.engine.Seal()
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(f.poll)
		select {
		case <-f.done:
			running = false
		case <-timer.C:
		}
	}
}

// drain ingests every batch available right now, stopping when the
// iterator reports caught-up (or the cycle cap is hit).
func (f *Follower) drain() (progressed bool, err error) {
	for i := 0; i < maxBatchesPerDrain; i++ {
		b, ok, err := f.next()
		if err != nil {
			return progressed, err
		}
		if !ok {
			return progressed, nil
		}
		f.engine.Ingest(b.Records)
		progressed = true
	}
	return progressed, nil
}

// next pulls one batch under the mutex (Position reads the iterator
// concurrently) and checks the epoch contract once it is established.
func (f *Follower) next() (wal.Batch, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok, err := f.it.Next()
	if err != nil || !ok {
		return b, ok, err
	}
	if epoch, known := f.it.Epoch(); known && !epoch.Equal(f.engine.Epoch()) {
		return wal.Batch{}, false, fmt.Errorf("query: WAL epoch %s does not match engine epoch %s", epoch, f.engine.Epoch())
	}
	return b, true, nil
}
