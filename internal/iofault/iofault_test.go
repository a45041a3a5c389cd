package iofault

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// writeSeq drives a fixed mutating-op sequence through fsys and returns
// the per-op outcomes as error strings ("" for success). The sequence
// exercises create, write, sync, rename, truncate and remove.
func writeSeq(t *testing.T, fsys FS, dir string, rounds int) []string {
	t.Helper()
	var out []string
	rec := func(err error) {
		if err != nil {
			// Strip the per-run temp directory so outcomes compare across
			// runs.
			out = append(out, strings.ReplaceAll(err.Error(), dir, "<dir>"))
		} else {
			out = append(out, "")
		}
	}
	for i := 0; i < rounds; i++ {
		path := filepath.Join(dir, "f.tmp")
		f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		rec(err)
		if err != nil {
			continue
		}
		_, werr := f.Write([]byte("0123456789abcdef"))
		rec(werr)
		rec(f.Sync())
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		rec(fsys.Rename(path, filepath.Join(dir, "f.dat")))
	}
	return out
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	plan := Plan{
		Seed: 41, WriteErrRate: 0.2, ENOSPCRate: 0.1, ShortWriteRate: 0.1,
		SyncErrRate: 0.3, RenameErrRate: 0.3, CreateENOSPCRate: 0.1,
	}
	runs := make([][]string, 2)
	for r := range runs {
		dir := t.TempDir()
		inj, err := New(OS, plan)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		runs[r] = writeSeq(t, inj, dir, 64)
		st := inj.Stats()
		if st.WriteErrs+st.ENOSPCs+st.ShortWrites+st.SyncErrs+st.RenameErrs+st.CreateErrs == 0 {
			t.Fatalf("plan with high rates injected nothing: %+v", st)
		}
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("outcome counts differ: %d vs %d", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("op %d diverged:\n  run0: %q\n  run1: %q", i, runs[0][i], runs[1][i])
		}
	}
}

func TestInjectedErrorsClassify(t *testing.T) {
	dir := t.TempDir()
	inj, err := New(OS, Plan{Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inj.Break(syscall.ENOSPC)
	f, err := inj.OpenFile(filepath.Join(dir, "x"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err == nil {
		f.Close()
		t.Fatal("create during Break succeeded")
	}
	if !IsInjected(err) {
		t.Fatalf("Break error not marked injected: %v", err)
	}
	if !errors.Is(err, syscall.ENOSPC) || !Transient(err) {
		t.Fatalf("ENOSPC not classified transient: %v", err)
	}
	inj.Heal()
	f, err = inj.OpenFile(filepath.Join(dir, "x"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("create after Heal: %v", err)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write after Heal: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if Transient(syscall.EIO) {
		t.Fatal("EIO classified transient; it is permanent")
	}
	if IsInjected(syscall.EIO) {
		t.Fatal("bare errno reported as injected")
	}
}

func TestShortWritePersistsPrefix(t *testing.T) {
	// Find a seed whose first write op draws the short-write class, then
	// verify the on-disk prefix matches the reported byte count.
	for seed := int64(0); seed < 512; seed++ {
		plan := Plan{Seed: seed, ShortWriteRate: 0.5}
		dir := t.TempDir()
		inj, err := New(OS, plan)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		path := filepath.Join(dir, "short")
		f, err := inj.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		payload := []byte("0123456789abcdef")
		n, werr := f.Write(payload)
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if werr == nil {
			continue // this op drew success; try the next seed
		}
		if !errors.Is(werr, syscall.EIO) || n >= len(payload) {
			t.Fatalf("short write returned n=%d err=%v", n, werr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("readback: %v", err)
		}
		if string(data) != string(payload[:n]) {
			t.Fatalf("disk holds %q, want prefix %q", data, payload[:n])
		}
		return
	}
	t.Fatal("no seed in 512 produced a short write at rate 0.5")
}

func TestCrashPointSilencesTail(t *testing.T) {
	// Reference run: count ops. Then for K = half the schedule, replay
	// and check the disk holds exactly the pre-K state.
	ref, err := New(OS, Plan{Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	writeSeq(t, ref, t.TempDir(), 4)
	total := ref.Ops()
	if total == 0 {
		t.Fatal("reference run observed no ops")
	}

	k := total / 2
	dir := t.TempDir()
	inj, err := New(OS, Plan{Seed: 7, CrashAfterOps: k})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	out := writeSeq(t, inj, dir, 4)
	for i, o := range out {
		if o != "" {
			t.Fatalf("crash-point run op %d errored: %s", i, o)
		}
	}
	// Black-hole handles do not advance the schedule, so the crash run
	// may observe fewer ops than the reference — but never more, and the
	// tail past K must be silenced.
	if st := inj.Stats(); st.Silenced == 0 || st.Ops > total {
		t.Fatalf("crash run stats: %+v, want <= %d ops with a silenced tail", st, total)
	}
	// With K = half, the final rename never landed: f.dat reflects an
	// earlier round (or is absent), and no bytes written after op K
	// exist anywhere.
	if _, err := os.Stat(filepath.Join(dir, "f.dat")); err != nil && !os.IsNotExist(err) {
		t.Fatalf("stat f.dat: %v", err)
	}

	// K = 0 must leave the directory completely empty.
	dir0 := t.TempDir()
	inj0, err := New(OS, Plan{Seed: 7, CrashAfterOps: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	writeSeq(t, inj0, dir0, 2)
	entries, err := os.ReadDir(dir0)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	// Op 0 is the first create; the file may exist but every write to it
	// was silenced, so anything present must be empty.
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatalf("info: %v", err)
		}
		if info.Size() != 0 {
			t.Fatalf("file %s has %d bytes past the crash point", e.Name(), info.Size())
		}
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (Plan{WriteErrRate: 1.5}).Validate(); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if err := (Plan{WriteErrRate: 0.5, ENOSPCRate: 0.4, ShortWriteRate: 0.3}).Validate(); err == nil {
		t.Fatal("write-class rates summing past 1 accepted")
	}
	if err := (Plan{CrashAfterOps: -1}).Validate(); err == nil {
		t.Fatal("negative crash point accepted")
	}
	if err := (Plan{Seed: 3, SyncErrRate: 1}).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if _, err := New(OS, Plan{ENOSPCRate: 2}); err == nil {
		t.Fatal("New accepted an invalid plan")
	}
}

// staleStatFS reports every file as size bytes long, whatever it holds:
// the Stat ReadFile sizes its buffer from is a hint, not a contract.
type staleStatFS struct {
	FS
	size int64
}

type fixedSize struct {
	os.FileInfo
	size int64
}

func (s fixedSize) Size() int64 { return s.size }

func (s staleStatFS) Stat(name string) (os.FileInfo, error) {
	fi, err := s.FS.Stat(name)
	if err != nil {
		return nil, err
	}
	return fixedSize{fi, s.size}, nil
}

// failingReadFS fails the read after the first n bytes of any file.
type failingReadFS struct {
	FS
	n int
}

type failingReadFile struct {
	File
	left int
}

func (f failingReadFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &failingReadFile{inner, f.n}, nil
}

func (f *failingReadFile) Read(p []byte) (int, error) {
	if f.left == 0 {
		return 0, syscall.EIO
	}
	if len(p) > f.left {
		p = p[:f.left]
	}
	n, err := f.File.Read(p)
	f.left -= n
	return n, err
}

func TestReadFileSizedFromStat(t *testing.T) {
	dir := t.TempDir()
	want := make([]byte, 3<<20+17)
	for i := range want {
		want[i] = byte(i * 7)
	}
	path := filepath.Join(dir, "seg")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	inj, err := New(OS, Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fsys FS
	}{
		{"os", OS},
		{"injector", inj},
		{"stat-too-small", staleStatFS{OS, 100}},
		{"stat-zero", staleStatFS{OS, 0}},
		{"stat-too-large", staleStatFS{OS, 8 << 20}},
		{"stat-negative", staleStatFS{OS, -1}},
	} {
		got, err := ReadFile(tc.fsys, path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: read %d bytes, want %d identical", tc.name, len(got), len(want))
		}
	}

	// An honest Stat means one buffer of size+1 and no regrowth: the
	// doubling io.ReadAll did here is what halved WAL recovery.
	got, err := ReadFile(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if cap(got) != len(want)+1 {
		t.Errorf("cap = %d, want exactly size+1 = %d", cap(got), len(want)+1)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadFile(OS, path); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("ReadFile of a %d-byte file made %.0f allocations; the buffer is being regrown", len(want), allocs)
	}

	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(OS, empty); err != nil || len(got) != 0 {
		t.Errorf("empty file: %d bytes, err %v", len(got), err)
	}
	if _, err := ReadFile(OS, filepath.Join(dir, "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("absent file: err = %v, want ErrNotExist", err)
	}

	// A read fault still surfaces, with the bytes read before it.
	got, err = ReadFile(failingReadFS{OS, 1000}, path)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("failing read: err = %v, want EIO", err)
	}
	if !bytes.Equal(got, want[:1000]) {
		t.Errorf("failing read returned %d bytes, want the first 1000", len(got))
	}
}
