package wal

import (
	"fmt"
	"honeyfarm/internal/iofault"
	"os"
	"path/filepath"
	"testing"
	"time"

	"honeyfarm/internal/honeypot"
)

var testEpoch = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

// mkRecords builds n small deterministic records starting at id.
func mkRecords(id uint64, n int) []*honeypot.SessionRecord {
	out := make([]*honeypot.SessionRecord, n)
	for i := range out {
		out[i] = &honeypot.SessionRecord{
			ID:         id + uint64(i),
			HoneypotID: int(id) % 7,
			ClientIP:   fmt.Sprintf("10.0.%d.%d", id%250, i%250),
			Start:      testEpoch.Add(time.Duration(id) * time.Minute),
			End:        testEpoch.Add(time.Duration(id)*time.Minute + 30*time.Second),
		}
	}
	return out
}

// sameBatches asserts got equals want by tag and record IDs.
func sameBatches(t *testing.T, got, want []Batch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d batches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Tag != want[i].Tag {
			t.Fatalf("batch %d tag = %d, want %d", i, got[i].Tag, want[i].Tag)
		}
		if len(got[i].Records) != len(want[i].Records) {
			t.Fatalf("batch %d has %d records, want %d", i, len(got[i].Records), len(want[i].Records))
		}
		for j := range got[i].Records {
			if got[i].Records[j].ID != want[i].Records[j].ID {
				t.Fatalf("batch %d record %d ID = %d, want %d",
					i, j, got[i].Records[j].ID, want[i].Records[j].ID)
			}
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{Epoch: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 0 {
		t.Fatalf("fresh log recovered %d batches", len(rec.Batches))
	}
	var want []Batch
	for i := 0; i < 10; i++ {
		recs := mkRecords(uint64(i*10+1), 3)
		if err := l.AppendTagged(uint64(i), recs); err != nil {
			t.Fatal(err)
		}
		want = append(want, Batch{Tag: uint64(i), Records: recs})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !rec2.Epoch.Equal(testEpoch) {
		t.Errorf("recovered epoch %v, want %v", rec2.Epoch, testEpoch)
	}
	sameBatches(t, rec2.Batches, want)
	if got := rec2.Records(); got != 30 {
		t.Errorf("recovered %d records, want 30", got)
	}
	s := rec2.Replay()
	if s.Len() != 30 {
		t.Errorf("replayed store has %d records, want 30", s.Len())
	}
	if !s.Epoch().Equal(testEpoch) {
		t.Errorf("replayed store epoch %v, want %v", s.Epoch(), testEpoch)
	}

	// The reopened log keeps appending where recovery left off.
	extra := mkRecords(500, 2)
	if err := l2.AppendTagged(99, extra); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3, err := Open(dir, Options{Epoch: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, rec3.Batches, append(want, Batch{Tag: 99, Records: extra}))
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Epoch: testEpoch, SegmentBytes: 1024, SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for i := 0; i < 40; i++ {
		recs := mkRecords(uint64(i*5+1), 2)
		if err := l.AppendTagged(uint64(i), recs); err != nil {
			t.Fatal(err)
		}
		want = append(want, Batch{Tag: uint64(i), Records: recs})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("1 KiB threshold produced only %d segments", len(segs))
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, rec.Batches, want)
	for i, seg := range rec.Segments {
		if seg.Torn {
			t.Errorf("segment %d (%s) reports torn tail on a clean log", i, seg.Name)
		}
		if seg.Seq != uint64(i+1) {
			t.Errorf("segment %d has sequence %d, want %d", i, seg.Seq, i+1)
		}
	}
}

// TestCrashAtEveryOffset is the recovery property test: a WAL whose
// final segment is truncated at EVERY byte boundary must always open
// without error and recover exactly the intact-frame prefix — never a
// partial frame, never a corrupt record, never an error. The subtest is
// named after the format, as it was when there were two.
func TestCrashAtEveryOffset(t *testing.T) {
	t.Run(FormatNameV2, testCrashAtEveryOffset)
}

func testCrashAtEveryOffset(t *testing.T) {
	build := t.TempDir()
	l, _, err := Open(build, Options{Epoch: testEpoch, SegmentBytes: 1500})
	if err != nil {
		t.Fatal(err)
	}
	var all []Batch
	for i := 0; i < 18; i++ {
		recs := mkRecords(uint64(i*3+1), 1+i%2)
		if err := l.AppendTagged(uint64(i), recs); err != nil {
			t.Fatal(err)
		}
		all = append(all, Batch{Tag: uint64(i), Records: recs})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(iofault.OS, build)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need a multi-segment log for the property test, got %d segments", len(segs))
	}

	// Count the batches living in segments before the last one: those
	// survive every truncation of the last segment.
	_, full, err := Open(build, Options{})
	if err != nil {
		t.Fatal(err)
	}
	priorBatches := 0
	for _, seg := range full.Segments[:len(full.Segments)-1] {
		priorBatches += seg.Frames
	}

	lastName := segs[len(segs)-1].Name
	lastBytes, err := os.ReadFile(filepath.Join(build, lastName))
	if err != nil {
		t.Fatal(err)
	}

	// Replay arena: earlier segments are copied once (Open never touches
	// them); the last segment is rewritten truncated for every offset.
	arena := t.TempDir()
	for _, seg := range segs[:len(segs)-1] {
		data, err := os.ReadFile(filepath.Join(build, seg.Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(arena, seg.Name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	prevRecovered := -1
	for off := 0; off <= len(lastBytes); off++ {
		if err := os.WriteFile(filepath.Join(arena, lastName), lastBytes[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(arena, Options{Epoch: testEpoch})
		if err != nil {
			t.Fatalf("offset %d: Open failed: %v", off, err)
		}
		n := len(rec.Batches)
		if n < priorBatches {
			t.Fatalf("offset %d: recovered %d batches, lost data from completed segments (have %d)",
				off, n, priorBatches)
		}
		if n > len(all) {
			t.Fatalf("offset %d: recovered %d batches from a log that only has %d", off, n, len(all))
		}
		sameBatches(t, rec.Batches, all[:n])
		if off == 0 && n != priorBatches {
			t.Fatalf("empty last segment recovered %d batches, want exactly the prior %d", n, priorBatches)
		}
		if off == len(lastBytes) && n != len(all) {
			t.Fatalf("untruncated log recovered %d batches, want all %d", n, len(all))
		}
		// Monotonicity: truncating less never recovers fewer frames.
		if prevRecovered >= 0 && n < prevRecovered {
			t.Fatalf("offset %d recovered %d batches but offset %d recovered %d",
				off, n, off-1, prevRecovered)
		}
		prevRecovered = n
		// The reopened log must accept appends and survive another cycle.
		if off%97 == 0 {
			extra := mkRecords(9000, 1)
			if err := l.AppendTagged(777, extra); err != nil {
				t.Fatalf("offset %d: append after recovery: %v", off, err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("offset %d: close: %v", off, err)
			}
			_, rec2, err := Open(arena, Options{})
			if err != nil {
				t.Fatalf("offset %d: reopen after append: %v", off, err)
			}
			sameBatches(t, rec2.Batches, append(append([]Batch{}, all[:n]...), Batch{Tag: 777, Records: extra}))
		} else if err := l.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
	}
}

func TestEpochMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Epoch: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkRecords(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Epoch: testEpoch.AddDate(0, 1, 0)}); err == nil {
		t.Fatal("Open with a different epoch succeeded")
	}
}

func TestFreshDirNeedsEpoch(t *testing.T) {
	if _, _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("Open of a fresh directory without an epoch succeeded")
	}
}

// TestCorruptMiddleSegment flips a byte in a non-final segment: Open
// must refuse (that is corruption, not a crash artifact), Verify must
// report it, and Repair must salvage the intact prefix.
func TestCorruptMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Epoch: testEpoch, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 40; i++ {
		if err := l.AppendTagged(uint64(i), mkRecords(uint64(i*5+1), 2)); err != nil {
			t.Fatal(err)
		}
		total += 2
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	mid := filepath.Join(dir, segs[1].Name)
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	}
	rec, err := Verify(dir, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Healthy() {
		t.Fatal("Verify reports a corrupt log as healthy")
	}
	if !rec.Segments[1].Torn || rec.Segments[1].TornBytes == 0 {
		t.Fatalf("Verify did not flag segment 1: %+v", rec.Segments[1])
	}

	rep, err := Repair(dir, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatal("Repair left the log unhealthy")
	}
	if rep.Records() >= total {
		t.Fatalf("repair of a corrupt middle recovered %d of %d records; corruption should cost data", rep.Records(), total)
	}
	if _, rec2, err := Open(dir, Options{}); err != nil {
		t.Fatalf("Open after Repair: %v", err)
	} else if rec2.Records() != rep.Records() {
		t.Fatalf("Open recovered %d records, Repair reported %d", rec2.Records(), rep.Records())
	}
}

func TestGroupCommitSyncCounter(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Epoch: testEpoch, SyncEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// 3 records stay below the threshold; the next 8 cross it and reset.
	if err := l.Append(mkRecords(1, 3)); err != nil {
		t.Fatal(err)
	}
	if got := l.pendingRecords(); got != 3 {
		t.Fatalf("pending = %d after 3 records, want 3", got)
	}
	if err := l.Append(mkRecords(10, 8)); err != nil {
		t.Fatal(err)
	}
	if got := l.pendingRecords(); got != 0 {
		t.Fatalf("pending = %d after crossing SyncEvery, want 0", got)
	}
	if err := l.Append(mkRecords(20, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.pendingRecords(); got != 0 {
		t.Fatalf("pending = %d after explicit Sync, want 0", got)
	}
}
