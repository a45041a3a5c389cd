package farm

import (
	"errors"
	"io"
	"runtime"
	"syscall"
	"testing"
	"time"

	"honeyfarm/internal/faults"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/query"
	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/store"
	"honeyfarm/internal/wal"
)

// replay folds the recovered batches into a store, as a restarting
// collector does.
func replay(r *wal.Recovery) *store.Store {
	s := store.New(r.Epoch)
	for _, b := range r.Batches {
		s.AddBatch(b.Records)
	}
	return s
}

// TestDurableCollectorSurvivesInWAL: with a WAL behind the farm's
// sink, a collected session is recoverable from disk alone.
func TestDurableCollectorSurvivesInWAL(t *testing.T) {
	dir := t.TempDir()
	epoch := time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)
	log, rec, err := wal.Open(dir, wal.Options{Epoch: epoch, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records() != 0 {
		t.Fatalf("fresh WAL has %d records", rec.Records())
	}

	reg := geo.NewRegistry(geo.Config{Seed: 1})
	eng := query.New(query.Config{Epoch: epoch, NumPots: 4, Registry: reg})
	sink := &recorder{next: query.NewSink(log, eng).Ingest}
	f, err := New(Config{
		Seed: 1, NumPots: 4, NumASes: 4,
		Countries: []string{"US", "SG", "DE", "JP"},
		Registry:  reg, Sink: sink.ingest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	nc, err := f.Fabric().Dial("203.0.113.9", f.SSHAddr(1))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "admin"})
	if err != nil {
		t.Fatal(err)
	}
	cc.Close()
	waitFor(t, 5*time.Second, func() bool { return sink.len() == 1 }, "record collected")
	f.Stop()
	if err := sink.firstErr(); err != nil {
		t.Fatalf("durable sink error: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The recorder is gone with the process; the WAL is not.
	_, rec2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := replay(rec2)
	if replayed.Len() != 1 {
		t.Fatalf("WAL replay has %d records, want 1", replayed.Len())
	}
	got := replayed.Records()[0]
	want := sink.records()[0]
	if got.ClientIP != want.ClientIP || got.HoneypotID != want.HoneypotID || !got.Start.Equal(want.Start) {
		t.Fatalf("replayed record %+v != collected %+v", got, want)
	}
}

// TestENOSPCWindowFarm: a disk-full window while the farm is live is
// count-and-drop, not crash. Records handed over during the outage reach
// the tee and are counted in Stats.DurableLost, but never reach the
// engine behind the sink; when the disk heals, the WAL resumes on a
// fresh segment without a process restart, and recovery reads the
// outage back as a gap frame.
func TestENOSPCWindowFarm(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	epoch := time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)
	fsys, err := iofault.New(iofault.OS, iofault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.Open(dir, wal.Options{
		Epoch: epoch, SyncEvery: 1, FS: fsys,
		RetryAttempts: 2,
		RetryPlan:     &faults.Plan{BackoffBaseMS: 1, BackoffCapMS: 1},
		ProbeEvery:    1,
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := geo.NewRegistry(geo.Config{Seed: 1})
	eng := query.New(query.Config{Epoch: epoch, NumPots: 4, Registry: reg})
	sink := &recorder{next: query.NewSink(log, eng).Ingest}
	f, err := New(Config{
		Seed: 1, NumPots: 4, NumASes: 4,
		Countries: []string{"US", "SG", "DE", "JP"},
		Registry:  reg, Sink: sink.ingest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	// session drives one SSH login against pot 1, producing one record.
	session := func(ip string, wantLen int) {
		t.Helper()
		nc, err := f.Fabric().Dial(ip, f.SSHAddr(1))
		if err != nil {
			t.Fatal(err)
		}
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "admin"})
		if err != nil {
			t.Fatal(err)
		}
		cc.Close()
		waitFor(t, 5*time.Second, func() bool { return sink.len() == wantLen }, "record collected")
	}

	// Healthy disk: the first record persists cleanly.
	session("203.0.113.20", 1)
	if n := f.Stats().DurableLost; n != 0 {
		t.Fatalf("durable lost = %d before the outage, want 0", n)
	}

	// Disk full: the record is handed over, counted as lost, and the farm
	// keeps running. (The barrier puts the outage after the first
	// record's group commit, not under it: the gap below is the write's.)
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	fsys.Break(syscall.ENOSPC)
	session("203.0.113.21", 2)
	if n := f.Stats().DurableLost; n != 1 {
		t.Fatalf("durable lost = %d during the outage, want 1", n)
	}
	derr := sink.firstErr()
	if !errors.Is(derr, wal.ErrDegraded) || !errors.Is(derr, syscall.ENOSPC) {
		t.Fatalf("durable error %v, want ErrDegraded wrapping ENOSPC", derr)
	}
	if h := log.Health(); !h.Degraded {
		t.Fatalf("WAL not degraded during the outage: %+v", h)
	}

	// Heal: the next record's append probes (ProbeEvery: 1), rolls a
	// fresh segment, and persists — no restart, no new losses.
	fsys.Heal()
	session("203.0.113.22", 3)
	h := log.Health()
	if h.Degraded || h.Recoveries != 1 || h.DroppedRecords != 1 {
		t.Fatalf("WAL health after heal = %+v, want recovered with 1 dropped record", h)
	}
	if n := f.Stats().DurableLost; n != 1 {
		t.Fatalf("durable lost = %d after heal, want still 1", n)
	}

	f.Stop()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)

	// Recovery sees the two persisted records plus a gap frame carrying
	// the outage's loss accounting, and the engine holds exactly those
	// two: recovered ≡ acknowledged.
	_, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records() != 2 || eng.Seq() != 2 {
		t.Fatalf("recovered %d records, engine seq %d, want 2 each", rec.Records(), eng.Seq())
	}
	if len(rec.Gaps) != 1 || rec.Gaps[0].Records != 1 || rec.Gaps[0].Reason != "append: enospc" {
		t.Fatalf("recovered gaps %+v, want one append:enospc gap of 1 record", rec.Gaps)
	}
}

// TestSinkDropAccountedPerPot: a record arriving while its pot is down
// is dropped AND attributed to that pot in the fault report, so
// durability losses are distinguishable from injected faults.
func TestSinkDropAccountedPerPot(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	sink := &recorder{}
	f, err := New(Config{
		Seed: 1, NumPots: 4, NumASes: 4,
		Countries: []string{"US", "SG", "DE", "JP"},
		Registry:  reg,
		// Huge backoff: the killed pot stays down for the whole test.
		Faults: &faults.Plan{Seed: 9, BackoffBaseMS: 60_000, BackoffCapMS: 60_000},
		Sink:   sink.ingest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)

	// Open a session against pot 2, then kill the pot mid-session: the
	// severed handler still finishes its record, which now has nowhere
	// to go.
	nc, err := f.Fabric().Dial("203.0.113.10", f.SSHAddr(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "admin"})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	f.Kill(2)
	go func() { _, _ = io.ReadAll(nc) }()

	waitFor(t, 5*time.Second, func() bool { return f.Stats().DroppedRecords == 1 }, "record dropped")
	rep := f.FaultReport(10)
	if rep.Pots[2].SinkDrops != 1 {
		t.Fatalf("pot 2 sink drops = %d, want 1 (report %+v)", rep.Pots[2].SinkDrops, rep.Pots)
	}
	if rep.TotalDropped() != 1 {
		t.Fatalf("total dropped = %d, want 1", rep.TotalDropped())
	}
	if sink.len() != 0 {
		t.Fatalf("sink got %d records, want 0", sink.len())
	}
}
