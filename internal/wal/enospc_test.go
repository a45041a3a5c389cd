//go:build linux

package wal

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestRealENOSPC exercises the degraded-mode machinery against an
// actual out-of-space filesystem instead of an injected fault: the
// harness (scripts/check.sh) mounts a size-capped tmpfs and points
// HONEYFARM_ENOSPC_DIR at it. The test fills the volume with ballast,
// drives appends until the kernel returns ENOSPC, verifies the log
// degrades exactly as with injected faults (ErrDegraded wrapping
// syscall.ENOSPC, health accounting), deletes the ballast, and checks
// the probe schedule recovers and the reopened log carries one gap
// frame with the outage accounting. Skipped unless the env var is set.
func TestRealENOSPC(t *testing.T) {
	root := os.Getenv("HONEYFARM_ENOSPC_DIR")
	if root == "" {
		t.Skip("HONEYFARM_ENOSPC_DIR not set; run via scripts/check.sh for the real-ENOSPC gate")
	}
	dir := filepath.Join(root, "wal")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ballast := filepath.Join(root, "ballast")
	defer os.Remove(ballast)

	l, _, err := Open(dir, Options{
		Epoch: testEpoch, SyncEvery: 1, // fsync every record: hit the disk immediately
		RetryAttempts: 2, RetryBackoff: tinyBackoff, ProbeEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	tag := uint64(0)
	append1 := func() error {
		tag++
		return l.AppendTagged(tag, mkRecords(tag*10, 1))
	}
	var acked []uint64
	for i := 0; i < 3; i++ {
		if err := append1(); err != nil {
			t.Fatalf("pre-fill append: %v", err)
		}
		acked = append(acked, tag)
	}

	// Fill the volume to the last byte: megabyte chunks first, halving
	// on each ENOSPC down to single bytes, so no allocatable space is
	// left and the WAL's own writes must fail for real.
	bf, err := os.Create(ballast)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for size := len(chunk); size >= 1; {
		if _, err := bf.Write(chunk[:size]); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("ballast fill failed with %v, want ENOSPC", err)
			}
			size /= 2
		}
	}
	if err := bf.Sync(); err != nil && !errors.Is(err, syscall.ENOSPC) {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}

	// With the disk genuinely full, appends must degrade — same contract
	// the injected-fault suite pins, now from the real kernel error.
	// The segment file's last partly-used page can still absorb a few
	// records without allocating, so push until the boundary is crossed.
	dropped := 0
	for i := 0; i < 256 && dropped < 3; i++ {
		err := append1()
		if err == nil {
			acked = append(acked, tag)
			continue
		}
		if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("append on full disk = %v, want ErrDegraded wrapping ENOSPC", err)
		}
		dropped++
	}
	if dropped < 3 {
		t.Fatal("volume never filled; size the tmpfs smaller")
	}
	h := l.Health()
	if !h.Degraded || h.Outages != 1 || h.DroppedBatches != dropped {
		t.Fatalf("health during real outage: %+v (dropped %d)", h, dropped)
	}

	// Heal by deleting the ballast; the probe schedule must roll a fresh
	// segment and resume within ProbeEvery appends.
	if err := os.Remove(ballast); err != nil {
		t.Fatal(err)
	}
	recovered := false
	for i := 0; i < 8; i++ {
		if err := append1(); err == nil {
			acked = append(acked, tag)
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("log never recovered after freeing space")
	}
	h = l.Health()
	if h.Degraded || h.Recoveries != 1 {
		t.Fatalf("health after recovery: %+v", h)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Recovery sees the acked batches, plus one gap frame accounting for
	// the records the outage dropped.
	_, rec, err := Open(dir, Options{Epoch: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != len(acked) {
		t.Fatalf("recovered %d batches, want %d acked", len(rec.Batches), len(acked))
	}
	for i, b := range rec.Batches {
		if b.Tag != acked[i] {
			t.Fatalf("recovered tag %d at %d, want %d", b.Tag, i, acked[i])
		}
	}
	if len(rec.Gaps) != 1 || rec.Gaps[0].Reason != "append: enospc" {
		t.Fatalf("recovered gaps %+v, want one append:enospc outage", rec.Gaps)
	}
	if rec.Gaps[0].Batches < dropped {
		t.Fatalf("gap frame accounts %d dropped batches, want at least %d", rec.Gaps[0].Batches, dropped)
	}
	if v, err := Verify(dir, testEpoch); err != nil {
		t.Fatalf("verify after real-ENOSPC run: %v (%+v)", err, v)
	}
}
