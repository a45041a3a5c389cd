package query_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/query"
	"honeyfarm/internal/wal"
)

// TestSinkOrderUnderENOSPC pins the sink's contract, recovered ≡
// acknowledged, under concurrency and a disk-full window: eight
// goroutines ingest single-record batches through one Sink while the
// disk fills and heals. Every acknowledged record is in the engine and
// in the recovered log, no refused one is in either, and the recovered
// batches replayed into a fresh engine seal to the same bytes.
func TestSinkOrderUnderENOSPC(t *testing.T) {
	const workers, each, numPots = 8, 32, 8
	dir := t.TempDir()
	fsys, err := iofault.New(iofault.OS, iofault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.Open(dir, wal.Options{
		Epoch: honeyfarm.DefaultEpoch, SyncEvery: 1, FS: fsys,
		RetryAttempts: 1, ProbeEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *query.Engine {
		return query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: numPots})
	}
	eng := newEngine()
	sink := query.NewSink(log, eng)
	record := func(id int) *honeypot.SessionRecord {
		start := honeyfarm.DefaultEpoch.Add(time.Duration(id) * 7 * time.Hour)
		return &honeypot.SessionRecord{
			ID: uint64(id), HoneypotID: id % numPots,
			ClientIP: fmt.Sprintf("198.51.%d.%d", id/200, id%200),
			Start:    start, End: start.Add(time.Minute),
		}
	}

	// The disk fills once a quarter of the records are in, and heals at
	// the eighth refusal; whichever goroutine crosses a mark flips it.
	var (
		mu             sync.Mutex
		acked, refused = map[uint64]bool{}, map[uint64]bool{}
		done, nRefused atomic.Int64
		wg             sync.WaitGroup
	)
	ingest := func(rec *honeypot.SessionRecord) error {
		err := sink.Ingest([]*honeypot.SessionRecord{rec})
		mu.Lock()
		if err == nil {
			acked[rec.ID] = true
		} else {
			refused[rec.ID] = true
		}
		mu.Unlock()
		return err
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := ingest(record(w*each + i))
				if err != nil && !errors.Is(err, wal.ErrDegraded) {
					t.Errorf("refusal %v, want wal.ErrDegraded", err)
				}
				if done.Add(1) == workers*each/4 {
					fsys.Break(syscall.ENOSPC)
				}
				if err != nil && nRefused.Add(1) == 8 {
					fsys.Heal()
				}
			}
		}(w)
	}
	wg.Wait()
	// Healed: the next append probes a fresh segment and is accepted.
	if err := ingest(record(workers * each)); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if len(refused) < 8 || len(acked) == 0 {
		t.Fatalf("acked %d, refused %d: the window did not open and close", len(acked), len(refused))
	}
	if eng.Seq() != uint64(len(acked)) {
		t.Fatalf("engine seq %d, acknowledged %d", eng.Seq(), len(acked))
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records() != len(acked) {
		t.Fatalf("recovered %d records, acknowledged %d", rec.Records(), len(acked))
	}
	replay := newEngine()
	for _, b := range rec.Batches {
		for _, r := range b.Records {
			if !acked[r.ID] || refused[r.ID] {
				t.Fatalf("recovered record %d was not acknowledged", r.ID)
			}
		}
		replay.Ingest(b.Records)
	}
	if got, want := mustJSON(t, replay.Seal()), mustJSON(t, eng.Seal()); !bytes.Equal(got, want) {
		t.Fatalf("replayed snapshot diverges from the live engine\nreplay: %.200s\nlive:   %.200s", got, want)
	}
}
