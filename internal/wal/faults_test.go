package wal

// ALICE-style durability property tests: the workload below runs
// through an iofault injector, and the assertions hold at every
// syscall-boundary crash point and under every seeded fsync-failure
// schedule — frames written before the cut survive, partial state is
// never admitted, and recovery is byte-identical for identical seeds.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/iofault"
)

// tinyBackoff keeps retry sleeps out of the test wall clock.
const tinyBackoff = time.Millisecond

// dirState reads every file in dir into a name→content map, for
// byte-identical comparisons between same-seed runs.
func dirState(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = data
	}
	return state
}

func sameDirState(t *testing.T, got, want map[string][]byte, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files vs %d", label, len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("%s: file %s differs between identically seeded runs", label, name)
		}
	}
}

// TestCrashAtEverySyscall generalizes TestCrashAtEveryOffset from byte
// truncation to full syscall schedules: the workload (appends, a
// rotation, meta frames, an atomic manifest write, a Sync barrier) is
// cut after its Kth mutating filesystem op for every K, and recovery
// must always succeed, admit exactly an append-order prefix, keep the
// Sync barrier's batches once the barrier op has executed, leave the
// manifest whole-file atomic, and sweep stranded *.tmp files. The subtest
// is named after the format, like the byte-level test's.
func TestCrashAtEverySyscall(t *testing.T) {
	t.Run(FormatNameV2, testCrashAtEverySyscall)
}

func testCrashAtEverySyscall(t *testing.T) {
	// Fault-free reference run: learn the schedule length, the barrier
	// position, and the full outcome.
	ref, err := iofault.New(iofault.OS, iofault.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	run := func(fsys iofault.FS, dir string, opsNow func() int64) ([]Batch, int, int64) {
		t.Helper()
		l, _, oerr := Open(dir, Options{
			Epoch: testEpoch, SegmentBytes: 512, SyncEvery: 1 << 20, FS: fsys,
			RetryBackoff: tinyBackoff,
		})
		if oerr != nil {
			t.Fatalf("open: %v", oerr)
		}
		var appended []Batch
		barrierBatches, barrierOps := 0, int64(0)
		manifest := filepath.Join(dir, "manifest.json")
		for i := 0; i < 8; i++ {
			recs := mkRecords(uint64(i*10+1), 2)
			if err := l.AppendTagged(uint64(i), recs); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			appended = append(appended, Batch{Tag: uint64(i), Records: recs})
			switch i {
			case 2:
				if err := atomicio.WriteFileBytesFS(fsys, manifest, []byte(`{"v":1}`)); err != nil {
					t.Fatalf("manifest v1: %v", err)
				}
			case 4:
				if err := l.Sync(); err != nil {
					t.Fatalf("sync barrier: %v", err)
				}
				barrierBatches = len(appended)
				if opsNow != nil {
					barrierOps = opsNow()
				}
			case 6:
				if err := atomicio.WriteFileBytesFS(fsys, manifest, []byte(`{"v":2}`)); err != nil {
					t.Fatalf("manifest v2: %v", err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return appended, barrierBatches, barrierOps
	}

	appended, barrierBatches, barrierOps := run(ref, refDir, ref.Ops)
	total := ref.Ops()
	if total < 20 {
		t.Fatalf("workload observed only %d mutating ops; the schedule should cover rotation and manifest writes", total)
	}

	prevRecovered := 0
	for k := int64(1); k <= total; k++ {
		dir := t.TempDir()
		inj, err := iofault.New(iofault.OS, iofault.Plan{Seed: 1, CrashAfterOps: k})
		if err != nil {
			t.Fatal(err)
		}
		run(inj, dir, nil)

		// Same seed, same K → byte-identical pre-recovery disk state.
		// Sampled: the crash run itself is single-goroutine determinism,
		// verified in full by the iofault package tests.
		if k%5 == 0 {
			dir2 := t.TempDir()
			inj2, err := iofault.New(iofault.OS, iofault.Plan{Seed: 1, CrashAfterOps: k})
			if err != nil {
				t.Fatal(err)
			}
			run(inj2, dir2, nil)
			sameDirState(t, dirState(t, dir2), dirState(t, dir), fmt.Sprintf("K=%d", k))
		}

		hadTmp := len(globNames(t, dir, "*.tmp")) > 0

		l, rec, err := Open(dir, Options{Epoch: testEpoch})
		if err != nil {
			t.Fatalf("K=%d: recovery open failed: %v", k, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("K=%d: recovered log close: %v", k, err)
		}
		m := len(rec.Batches)
		if m > len(appended) {
			t.Fatalf("K=%d: recovered %d batches, more than the %d appended", k, m, len(appended))
		}
		sameBatches(t, rec.Batches, appended[:m])
		if m < prevRecovered {
			t.Fatalf("K=%d: recovered %d batches, fewer than %d at K-1 — executing one more op lost data", k, m, prevRecovered)
		}
		prevRecovered = m
		if k >= barrierOps && m < barrierBatches {
			t.Fatalf("K=%d: only %d batches survive but the Sync barrier (op %d) covered %d", k, m, barrierOps, barrierBatches)
		}
		if len(rec.Gaps) != 0 {
			t.Fatalf("K=%d: crash recovery reports %d gap frames; none were written", k, len(rec.Gaps))
		}
		if hadTmp && len(rec.OrphanedTmp) == 0 {
			t.Fatalf("K=%d: a stranded *.tmp existed but recovery reported none", k)
		}
		if names := globNames(t, dir, "*.tmp"); len(names) != 0 {
			t.Fatalf("K=%d: %v survived recovery; Open must sweep stale tmp files", k, names)
		}

		// The manifest is whole-file atomic: old version, new version, or
		// absent — never a torn mixture.
		switch data, err := os.ReadFile(filepath.Join(dir, "manifest.json")); {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			t.Fatalf("K=%d: manifest read: %v", k, err)
		case string(data) != `{"v":1}` && string(data) != `{"v":2}`:
			t.Fatalf("K=%d: manifest holds %q — a partial write escaped the atomic protocol", k, data)
		}
	}
	if prevRecovered != len(appended) {
		t.Fatalf("crash at K=total recovered %d batches, want all %d", prevRecovered, len(appended))
	}
}

func globNames(t *testing.T, dir, pattern string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestFsyncFaultSchedule runs a seeded fsync-failure schedule over an
// append+Sync workload: acknowledged batches must all be recovered, the
// recovered sequence must be exactly the acknowledged subsequence,
// every unacknowledged batch must be accounted for in Health, and two
// identically seeded runs must leave byte-identical segments.
func TestFsyncFaultSchedule(t *testing.T) {
	const batches = 25
	for _, seed := range []int64{3, 17, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			type outcome struct {
				written []bool
				health  Health
				state   map[string][]byte
			}
			run := func() outcome {
				dir := t.TempDir()
				inj, err := iofault.New(iofault.OS, iofault.Plan{Seed: seed, SyncErrRate: 0.35})
				if err != nil {
					t.Fatal(err)
				}
				l, _, err := Open(dir, Options{
					Epoch: testEpoch, SyncEvery: 1 << 20, FS: inj,
					RetryAttempts: 1, RetryBackoff: tinyBackoff, ProbeEvery: 2,
				})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				o := outcome{written: make([]bool, batches)}
				for i := 0; i < batches; i++ {
					err := l.AppendTagged(uint64(i), mkRecords(uint64(i*10+1), 1))
					if err != nil && !errors.Is(err, ErrDegraded) {
						t.Fatalf("append %d: unexpected error class: %v", i, err)
					}
					o.written[i] = err == nil
					if err == nil {
						// The explicit sync may fail by schedule; the frame is
						// already on disk either way.
						if serr := l.Sync(); serr != nil && !errors.Is(serr, ErrDegraded) {
							t.Fatalf("sync %d: unexpected error class: %v", i, serr)
						}
					}
				}
				o.health = l.Health()
				if err := l.Close(); err != nil && !errors.Is(err, ErrDegraded) {
					t.Fatalf("close: unexpected error class: %v", err)
				}
				o.state = dirState(t, dir)

				// Recovery with a clean filesystem: the acknowledged batches,
				// exactly, in order.
				_, rec, err := Open(dir, Options{Epoch: testEpoch})
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				var want []Batch
				for i := 0; i < batches; i++ {
					if o.written[i] {
						want = append(want, Batch{Tag: uint64(i), Records: mkRecords(uint64(i*10+1), 1)})
					}
				}
				sameBatches(t, rec.Batches, want)
				if got := len(rec.Batches) + o.health.DroppedRecords; got != batches {
					t.Fatalf("recovered %d + dropped %d = %d records, want %d accounted for",
						len(rec.Batches), o.health.DroppedRecords, got, batches)
				}
				if rec.DroppedRecords() > o.health.DroppedRecords {
					t.Fatalf("gap frames record %d drops, more than Health's %d",
						rec.DroppedRecords(), o.health.DroppedRecords)
				}
				if o.health.Outages == 0 {
					t.Fatalf("35%% sync failure over %d syncs never degraded the log", batches)
				}
				return o
			}

			a, b := run(), run()
			for i := range a.written {
				if a.written[i] != b.written[i] {
					t.Fatalf("batch %d ack diverged between identically seeded runs", i)
				}
			}
			// Reason carries the (path-bearing) cause; the counters and
			// segment bytes are the determinism contract.
			a.health.Reason, b.health.Reason = "", ""
			if a.health != b.health {
				t.Fatalf("health diverged between identically seeded runs:\n  %+v\n  %+v", a.health, b.health)
			}
			sameDirState(t, b.state, a.state, "fsync schedule")
		})
	}
}

// hookFS wraps an iofault.FS with a settable fsync hook, for driving
// the group-commit pipeline from a test, and logs every mutating op it
// forwards (base names only) so a test can pin the exact I/O schedule.
type hookFS struct {
	inner iofault.FS

	mu   sync.Mutex
	sync func() error
	ops  []string
}

func (h *hookFS) setSync(fn func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sync = fn
}

func (h *hookFS) syncHook() func() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sync
}

func (h *hookFS) logOp(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ops = append(h.ops, fmt.Sprintf(format, args...))
}

// opLog returns a copy of the ops forwarded so far.
func (h *hookFS) opLog() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.ops...)
}

func (h *hookFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := h.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	h.logOp("open %s create=%t", base, flag&os.O_CREATE != 0)
	return &hookFile{File: f, fs: h, base: base}, nil
}

func (h *hookFS) Rename(oldpath, newpath string) error { return h.inner.Rename(oldpath, newpath) }
func (h *hookFS) Remove(name string) error {
	h.logOp("remove %s", filepath.Base(name))
	return h.inner.Remove(name)
}
func (h *hookFS) ReadDir(name string) ([]os.DirEntry, error) { return h.inner.ReadDir(name) }
func (h *hookFS) Stat(name string) (os.FileInfo, error)      { return h.inner.Stat(name) }
func (h *hookFS) MkdirAll(name string, perm os.FileMode) error {
	return h.inner.MkdirAll(name, perm)
}

type hookFile struct {
	iofault.File
	fs   *hookFS
	base string
}

func (f *hookFile) Write(p []byte) (int, error) {
	f.fs.logOp("write %s %d", f.base, len(p))
	return f.File.Write(p)
}

func (f *hookFile) Truncate(size int64) error {
	f.fs.logOp("truncate %s %d", f.base, size)
	return f.File.Truncate(size)
}

func (f *hookFile) Close() error {
	f.fs.logOp("close %s", f.base)
	return f.File.Close()
}

func (f *hookFile) Sync() error {
	f.fs.logOp("sync %s", f.base)
	if hook := f.fs.syncHook(); hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// TestCommitterFsyncErrorSticky drives a group-commit fsync failure: the
// error surfaces on the first Append after the committer finished it
// (not silently swallowed on the committer goroutine) and before that
// Append writes, sticks across Sync and Close, and clears only through
// a successful recovery probe.
func TestCommitterFsyncErrorSticky(t *testing.T) {
	dir := t.TempDir()
	fs := &hookFS{inner: iofault.OS}
	l, _, err := Open(dir, Options{Epoch: testEpoch, SyncEvery: 2, FS: fs, ProbeEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs.setSync(func() error { return syscall.EIO })

	// Batch A crosses SyncEvery and hands its fsync to the committer,
	// which fails asynchronously; A's append already returned nil.
	if err := l.AppendTagged(1, mkRecords(1, 2)); err != nil {
		t.Fatalf("append A: %v", err)
	}
	settle(l)
	// Batch B collects A's failed fsync before writing anything: the log
	// degrades, the probe's re-seal fails too, and B is dropped and
	// counted — reported failed, and not in the log.
	err = l.AppendTagged(2, mkRecords(11, 2))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after failed group commit = %v, want ErrDegraded", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Sync on degraded log = %v, want ErrDegraded", err)
	}
	// Off the probe schedule: dropped without touching the disk.
	if err := l.AppendTagged(3, mkRecords(21, 2)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append C = %v, want ErrDegraded", err)
	}
	h := l.Health()
	if !h.Degraded || h.Outages != 1 || h.DroppedBatches != 2 || h.DroppedRecords != 4 {
		t.Fatalf("health after sticky sync failure: %+v", h)
	}

	// Heal the disk: within ProbeEvery dropped appends a probe rolls a
	// fresh segment and appends resume, with the outage on record.
	fs.setSync(nil)
	var recovered bool
	for i := 0; i < 3 && !recovered; i++ {
		recovered = l.AppendTagged(4, mkRecords(31, 2)) == nil
	}
	if !recovered {
		t.Fatal("log never recovered after the fsync fault cleared")
	}
	h = l.Health()
	if h.Degraded || h.Recoveries != 1 {
		t.Fatalf("health after recovery: %+v", h)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}

	// A was acknowledged before the outage and batch 4 after it; B and C
	// are in the gap frame and nowhere else.
	tags, gaps := recoveredTags(t, dir)
	want := Gap{Reason: "group commit fsync: eio", Batches: h.DroppedBatches, Records: h.DroppedRecords}
	if len(gaps) != 1 || gaps[0] != want {
		t.Fatalf("recovered gaps = %+v, want %+v", gaps, want)
	}
	if len(tags) != 2 || tags[0] != 1 || tags[1] != 4 {
		t.Fatalf("recovered tags %v, want [1 4]", tags)
	}
}

// TestCloseDrainsInflightSync pins the committer-handoff contract:
// Close must wait out an in-flight asynchronous fsync before touching
// the file, and complete cleanly once it lands.
func TestCloseDrainsInflightSync(t *testing.T) {
	dir := t.TempDir()
	fs := &hookFS{inner: iofault.OS}
	l, _, err := Open(dir, Options{Epoch: testEpoch, SyncEvery: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	fs.setSync(func() error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	if err := l.AppendTagged(7, mkRecords(1, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	<-entered // the committer is inside its fsync

	closeDone := make(chan error, 1)
	go func() { closeDone <- l.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v with the group-commit fsync still in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	fs.setSync(nil) // the final Close fsync must not block on the gate
	close(gate)
	if err := <-closeDone; err != nil {
		t.Fatalf("Close after drain: %v", err)
	}

	_, rec, err := Open(dir, Options{Epoch: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Tag != 7 {
		t.Fatalf("recovered %d batches, want the drained append", len(rec.Batches))
	}
}

// TestENOSPCWindowRecovers opens a Break/Heal out-of-space window
// around a run of appends: inside the window every append is counted
// and dropped with ErrDegraded; after Heal the probe schedule rolls a
// fresh segment (with a gap frame carrying the outage accounting) and
// appends resume without reopening the log.
func TestENOSPCWindowRecovers(t *testing.T) {
	dir := t.TempDir()
	inj, err := iofault.New(iofault.OS, iofault.Plan{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(dir, Options{
		Epoch: testEpoch, SyncEvery: 1 << 20, FS: inj,
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
			t.Fatalf("pre-outage append: %v", err)
		}
		acked = append(acked, tag)
	}

	inj.Break(syscall.ENOSPC)
	for i := 0; i < 5; i++ {
		err := append1()
		if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("append during outage = %v, want ErrDegraded wrapping ENOSPC", err)
		}
	}
	h := l.Health()
	if !h.Degraded || h.DroppedBatches != 5 || h.DroppedRecords != 5 || h.Outages != 1 {
		t.Fatalf("health during outage: %+v", h)
	}

	inj.Heal()
	// The next probe slot lands within ProbeEvery appends of the heal.
	recoveredAt := -1
	for i := 0; i < 4; i++ {
		if err := append1(); err == nil {
			acked = append(acked, tag)
			recoveredAt = i
			break
		}
	}
	if recoveredAt < 0 {
		t.Fatal("log never recovered within ProbeEvery appends of Heal")
	}
	if err := append1(); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	acked = append(acked, tag)
	h = l.Health()
	if h.Degraded || h.Recoveries != 1 {
		t.Fatalf("health after recovery: %+v", h)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Recovery: the acked batches exactly, one gap frame carrying the
	// full outage accounting, contiguous healthy segments.
	_, rec, err := Open(dir, Options{Epoch: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != len(acked) {
		t.Fatalf("recovered %d batches, want the %d acked", len(rec.Batches), len(acked))
	}
	for i, b := range rec.Batches {
		if b.Tag != acked[i] {
			t.Fatalf("recovered tag %d at %d, want %d", b.Tag, i, acked[i])
		}
	}
	wantDropped := int(acked[len(acked)-1]) - len(acked)
	if len(rec.Gaps) != 1 || rec.Gaps[0].Reason != "append: enospc" ||
		rec.Gaps[0].Batches != wantDropped || rec.Gaps[0].Records != wantDropped {
		t.Fatalf("recovered gaps %+v, want one append:enospc outage dropping %d", rec.Gaps, wantDropped)
	}
	for i, seg := range rec.Segments {
		if seg.Seq != uint64(i+1) {
			t.Fatalf("segment %d has sequence %d; degraded recovery broke contiguity", i, seg.Seq)
		}
		if seg.Torn {
			t.Fatalf("segment %s torn after clean close", seg.Name)
		}
	}
	v, err := Verify(dir, testEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Healthy() {
		t.Fatal("post-outage WAL fails Verify")
	}

	// Read, the dataset loader's reader, surfaces the same gap.
	r, err := Read(dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(r.Batches) != len(acked) {
		t.Fatalf("Read returned %d batches, want %d", len(r.Batches), len(acked))
	}
	if len(r.Gaps) != 1 || r.Gaps[0].Records != wantDropped {
		t.Fatalf("Read gaps %+v, want the outage record", r.Gaps)
	}
}
