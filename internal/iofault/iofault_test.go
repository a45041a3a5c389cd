package iofault

import (
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
