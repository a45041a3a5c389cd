package wal

// Tests of the group-commit pipeline on a gated-fsync hookFS: every
// wait is on an event (the hook entering an fsync, the committer's
// cond), never on a sleep.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"honeyfarm/internal/iofault"
)

var updateGolden = flag.Bool("update", false, "rewrite the keep-up op-sequence golden")

// settle waits until the committer has finished and published every
// fsync issued so far: the disk "keeping up" with the test's appends.
func settle(l *Log) {
	l.mu.Lock()
	issued := l.issued
	l.mu.Unlock()
	l.cmu.Lock()
	for l.finished < issued {
		l.cond.Wait()
	}
	l.cmu.Unlock()
}

// syncGate holds every fsync at the hook: entered reports one has
// started, release lets one finish with the sent verdict. open lets all
// later ones through.
type syncGate struct {
	entered chan struct{}
	release chan error
}

func gateSyncs(fs *hookFS) *syncGate {
	// entered is sized past every fsync a test makes, so the hook never
	// blocks on an unread signal.
	g := &syncGate{entered: make(chan struct{}, 64), release: make(chan error)}
	fs.setSync(func() error {
		g.entered <- struct{}{}
		return <-g.release
	})
	return g
}

func (g *syncGate) open() { close(g.release) }

func openGated(t *testing.T, opts Options) (*Log, *hookFS, *syncGate, string) {
	t.Helper()
	dir := t.TempDir()
	fs := &hookFS{inner: iofault.OS}
	opts.Epoch, opts.FS = testEpoch, fs
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, fs, gateSyncs(fs), dir
}

func mustAppend(t *testing.T, l *Log, tag uint64) {
	t.Helper()
	if err := l.AppendTagged(tag, mkRecords(tag*10, 1)); err != nil {
		t.Fatalf("append %d: %v", tag, err)
	}
}

func wantHealth(t *testing.T, l *Log, when string, fsyncs, unsynced, coalesced int) {
	t.Helper()
	h := l.Health()
	if h.Fsyncs != fsyncs || h.UnsyncedRecords != unsynced || h.CoalescedSyncs != coalesced {
		t.Fatalf("%s: fsyncs=%d unsynced=%d coalesced=%d, want %d/%d/%d",
			when, h.Fsyncs, h.UnsyncedRecords, h.CoalescedSyncs, fsyncs, unsynced, coalesced)
	}
}

// awaitFrame returns once some goroutine's stack shows fn: the point a
// concurrent call has reached when no op or counter tells it apart.
func awaitFrame(fn string) {
	buf := make([]byte, 1<<16)
	for !strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn) {
		runtime.Gosched()
	}
}

// opIndexes returns the positions of op in the log.
func opIndexes(ops []string, op string) []int {
	var at []int
	for i, o := range ops {
		if o == op {
			at = append(at, i)
		}
	}
	return at
}

func recoveredTags(t *testing.T, dir string) ([]uint64, []Gap) {
	t.Helper()
	_, rec, err := Open(dir, Options{Epoch: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]uint64, len(rec.Batches))
	for i, b := range rec.Batches {
		tags[i] = b.Tag
	}
	return tags, rec.Gaps
}

// TestCommitPipelineAbsorbs walks a request through the three states it
// can find the committer in: idle (sent, starts at once), in flight
// (sent, queued), queued (absorbed). At most two fsyncs are ever
// outstanding, and Health counts exactly the fsyncs the disk saw.
func TestCommitPipelineAbsorbs(t *testing.T) {
	l, fs, g, dir := openGated(t, Options{SyncEvery: 1})

	mustAppend(t, l, 1)
	<-g.entered // fsync 1 in flight, covering record 1
	mustAppend(t, l, 2)
	wantHealth(t, l, "one in flight, one queued", 0, 2, 0)
	mustAppend(t, l, 3)
	mustAppend(t, l, 4)
	wantHealth(t, l, "two absorbed", 0, 4, 2)
	if l.issued != 2 || len(g.entered) != 0 {
		t.Fatalf("issued=%d with %d more fsyncs started; want one in flight and one queued", l.issued, len(g.entered))
	}

	g.release <- nil
	<-g.entered // fsync 2 in flight: fsync 1 is published
	wantHealth(t, l, "first fsync done", 1, 3, 2)
	g.release <- nil
	settle(l)
	wantHealth(t, l, "queued fsync done", 2, 0, 2)
	if got := len(opIndexes(fs.opLog(), "sync wal-00000001.seg")) - 1; got != 2 {
		t.Fatalf("disk saw %d group-commit fsyncs, Health says 2", got)
	}

	g.open()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if tags, _ := recoveredTags(t, dir); len(tags) != 4 {
		t.Fatalf("recovered tags %v, want all four", tags)
	}
}

// TestCommitPipelineBarriers holds one fsync in flight and one queued,
// then starts each barrier: it may return only after both finished, and
// the segment handle is closed only after the last fsync on it started.
func TestCommitPipelineBarriers(t *testing.T) {
	barriers := []struct {
		name    string
		segment int64
		run     func(l *Log) error
	}{
		{"Sync", 0, func(l *Log) error { return l.Sync() }},
		{"Close", 0, func(l *Log) error { return l.Close() }},
		// Two two-record frames fit under 600 bytes; a third frame rotates
		// (and with one record it makes no sync request of its own).
		{"rotation", 600, func(l *Log) error { return l.AppendTagged(3, mkRecords(30, 1)) }},
	}
	for _, b := range barriers {
		b := b
		t.Run(b.name, func(t *testing.T) {
			l, fs, g, dir := openGated(t, Options{SyncEvery: 2, SegmentBytes: b.segment})
			for tag := uint64(1); tag <= 2; tag++ {
				if err := l.AppendTagged(tag, mkRecords(tag*10, 2)); err != nil {
					t.Fatal(err)
				}
				if tag == 1 {
					<-g.entered
				}
			}

			done := make(chan error, 1)
			go func() { done <- b.run(l) }()
			g.release <- nil
			<-g.entered // the queued fsync is now the in-flight one
			select {
			case err := <-done:
				t.Fatalf("%s returned %v with a group-commit fsync still in flight", b.name, err)
			default:
			}
			g.open()
			if err := <-done; err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			if h := l.Health(); h.Degraded || h.Fsyncs != 3 || h.UnsyncedRecords != 0 {
				t.Fatalf("after %s: %+v, want two group commits and the barrier's own fsync", b.name, h)
			}
			if b.name != "Close" {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			ops := fs.opLog()
			syncs, closes := opIndexes(ops, "sync wal-00000001.seg"), opIndexes(ops, "close wal-00000001.seg")
			if len(closes) != 1 || closes[0] < syncs[len(syncs)-1] {
				t.Fatalf("segment 1 closed at op %v, fsynced at ops %v: the committer was handed a closed handle\n%s",
					closes, syncs, strings.Join(ops, "\n"))
			}
			if tags, _ := recoveredTags(t, dir); len(tags) < 2 {
				t.Fatalf("recovered tags %v", tags)
			}
		})
	}
}

// TestCommitPipelineInflightFailure fails the in-flight fsync with one
// queued behind it: the queued one still runs before the segment is
// sealed, the failure degrades the log exactly once, and it surfaces on
// the first Append after the committer finished — before that Append
// writes, so the batch goes to the fresh segment the probe rolled.
func TestCommitPipelineInflightFailure(t *testing.T) {
	l, fs, g, dir := openGated(t, Options{SyncEvery: 1})
	mustAppend(t, l, 1)
	<-g.entered
	mustAppend(t, l, 2)
	g.release <- syscall.EIO
	<-g.entered
	g.open()
	settle(l)
	wantHealth(t, l, "in-flight failed, queued landed", 1, 0, 0)

	mustAppend(t, l, 3) // collects the failure, degrades, probes, lands in segment 2
	if h := l.Health(); h.Degraded || h.Outages != 1 || h.Recoveries != 1 || h.DroppedBatches != 0 {
		t.Fatalf("health after the failure surfaced: %+v", h)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ops := fs.opLog()
	syncs, truncs := opIndexes(ops, "sync wal-00000001.seg"), opIndexes(ops, "close wal-00000001.seg")
	if len(syncs) < 3 || len(truncs) == 0 || truncs[0] < syncs[2] {
		t.Fatalf("segment 1 was sealed before the queued fsync ran:\n%s", strings.Join(ops, "\n"))
	}
	tags, gaps := recoveredTags(t, dir)
	if len(tags) != 3 || len(gaps) != 1 || gaps[0] != (Gap{Reason: "group commit fsync: eio"}) {
		t.Fatalf("recovered tags %v gaps %+v, want three batches and one empty group-commit outage", tags, gaps)
	}
}

// TestCommitPipelineBoundedBySegment holds the disk shut: appends keep
// being acknowledged — all but the first two requests absorbed — until
// the segment fills, and stop at the rotation barrier. The un-durable
// tail is therefore at most SegmentBytes plus one frame.
func TestCommitPipelineBoundedBySegment(t *testing.T) {
	const segment = 4000
	l, fs, g, _ := openGated(t, Options{SyncEvery: 1, SegmentBytes: segment})
	mustAppend(t, l, 1)
	<-g.entered // held until the end
	// Every append that does not fill the segment must return although
	// fsync 1 never finishes. (Only this goroutine appends, so reading
	// l.size between appends needs no lock.)
	tag := uint64(2)
	for ; l.size+int64(len(EncodeBatchFrame(nil, tag, mkRecords(tag*10, 1)))) < segment; tag++ {
		mustAppend(t, l, tag)
	}
	wantHealth(t, l, "disk shut", 0, int(tag)-1, int(tag)-3)

	// The next one fills it: written, absorbed into the queued fsync, then
	// stopped at the barrier. The gate opens only once it is there: opened
	// between its write and its sync request, the drained queue would take
	// a request of its own.
	rotated := make(chan struct{})
	go func() {
		defer close(rotated)
		if err := l.AppendTagged(tag, mkRecords(tag*10, 1)); err != nil {
			t.Errorf("append %d: %v", tag, err)
		}
	}()
	awaitFrame("(*Log).rotateLocked")
	select {
	case <-rotated:
		t.Fatal("rotation completed with the in-flight fsync never finishing")
	default:
	}
	fs.logOp("gate opened")
	g.open()
	<-rotated

	// Every write to segment 1 came before the gate opened; the queued
	// fsync, the seal and segment 2 only after it.
	ops := fs.opLog()
	opened := opIndexes(ops, "gate opened")[0]
	syncs := opIndexes(ops, "sync wal-00000001.seg")[1:] // [0] is the meta frame's
	written := 0
	for i, op := range ops {
		var n int
		if _, err := fmt.Sscanf(op, "write wal-00000001.seg %d", &n); err == nil {
			written += n
			if i > opened {
				t.Fatalf("op %d wrote to segment 1 after the gate opened", i)
			}
		}
	}
	if len(syncs) != 3 || syncs[0] > opened || syncs[1] < opened {
		t.Fatalf("fsyncs of segment 1 at ops %v, gate opened at %d: want one held before it, the queued one and the seal after\n%s",
			syncs, opened, strings.Join(ops, "\n"))
	}
	if written < segment || written > segment+150 {
		t.Fatalf("%d bytes were written behind one unfinished fsync; want the segment full (%d) and at most one frame over", written, segment)
	}
	wantHealth(t, l, "disk back", 3, 0, int(tag)-2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitPipelineKeepUpIdentity pins the I/O schedule of a fixed
// append stream when the disk keeps up (each group commit finishes
// before the next append): the golden was recorded from the depth-one
// pipeline this one replaced, so absorbing changes nothing until a
// request actually finds the committer busy.
func TestCommitPipelineKeepUpIdentity(t *testing.T) {
	dir := t.TempDir()
	fs := &hookFS{inner: iofault.OS}
	l, _, err := Open(dir, Options{Epoch: testEpoch, SegmentBytes: 1500, SyncEvery: 4, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := l.AppendTagged(uint64(i), mkRecords(uint64(i*10+1), 1+i%3)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		settle(l)
		if i == 17 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if h := l.Health(); h.CoalescedSyncs != 0 || h.UnsyncedRecords != 0 {
		t.Fatalf("a disk that keeps up absorbed requests: %+v", h)
	}
	got := strings.Join(fs.opLog(), "\n") + "\n"
	golden := filepath.Join("testdata", "keepup_ops.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("op sequence differs from the pinned one (%s):\n%s", golden, got)
	}
}

// TestCommitPipelineErrorLeavesNoFrame is the identity the drop
// accounting rests on, under seeded fsync failures that hit group
// commits and rotation seals alike: a batch is recovered if and only if
// its Append returned nil, and every other batch is in the drop
// counters.
func TestCommitPipelineErrorLeavesNoFrame(t *testing.T) {
	const batches = 60
	for _, seed := range []int64{3, 17, 99} {
		dir := t.TempDir()
		inj, err := iofault.New(iofault.OS, iofault.Plan{Seed: seed, SyncErrRate: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := Open(dir, Options{
			Epoch: testEpoch, SyncEvery: 2, SegmentBytes: 700, FS: inj,
			RetryAttempts: 1, RetryBackoff: tinyBackoff, ProbeEvery: 2,
		})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		var acked []uint64
		for i := uint64(0); i < batches; i++ {
			err := l.AppendTagged(i, mkRecords(i*10+1, 1))
			if err == nil {
				acked = append(acked, i)
			} else if !errors.Is(err, ErrDegraded) {
				t.Fatalf("seed %d: append %d: unexpected error class: %v", seed, i, err)
			}
			settle(l)
		}
		h := l.Health()
		// Close's own seal may fail by schedule; the frames are on disk
		// either way.
		if err := l.Close(); err != nil && !iofault.IsInjected(err) {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
		tags, _ := recoveredTags(t, dir)
		if len(tags) != len(acked) {
			t.Fatalf("seed %d: recovered %v, acknowledged %v", seed, tags, acked)
		}
		for i := range tags {
			if tags[i] != acked[i] {
				t.Fatalf("seed %d: recovered %v, acknowledged %v", seed, tags, acked)
			}
		}
		if h.Outages == 0 || len(acked)+h.DroppedBatches != batches {
			t.Fatalf("seed %d: %d acknowledged + %d dropped of %d, %d outages", seed, len(acked), h.DroppedBatches, batches, h.Outages)
		}
	}
}
