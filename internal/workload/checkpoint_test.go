package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/iofault"
)

// checkpointTestConfig is small enough to run quickly but spans several
// decoration shards, so a truncated WAL genuinely loses work.
func checkpointTestConfig(dir string) Config {
	return Config{
		Seed: 9, TotalSessions: 20_000, Days: 40, NumPots: 30,
		Registry: geo.NewRegistry(geo.Config{Seed: 1}),
		Workers:  2, CheckpointDir: dir,
	}
}

// serialize renders a generated dataset to its canonical JSONL bytes.
func serialize(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Store.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointResumeByteIdentical is the unit-level crash/resume
// contract: a run whose checkpoint lost its tail (torn WAL) must,
// on resume, regenerate exactly the missing shards and emit bytes
// identical to an uninterrupted, checkpoint-free run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	plainCfg := checkpointTestConfig("")
	want := serialize(t, plainCfg)

	// First pass: a complete checkpointed run.
	first := serialize(t, checkpointTestConfig(dir))
	if !bytes.Equal(first, want) {
		t.Fatal("checkpointed run differs from plain run")
	}

	// Simulate a crash that lost the WAL's tail: truncate the last
	// segment mid-frame, destroying its final batches.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments written: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()*2/5); err != nil {
		t.Fatal(err)
	}

	// Resume: missing shards are re-decorated, recovered ones reused.
	resumedCfg := checkpointTestConfig(dir)
	resumedCfg.Resume = true
	resumedCfg.Workers = 3 // worker count must not matter on resume either
	resumed := serialize(t, resumedCfg)
	if !bytes.Equal(resumed, want) {
		t.Fatal("resumed run is not byte-identical to the uninterrupted run")
	}
}

// TestCheckpointRefusesForeignManifest: resuming with a different
// output-shaping configuration must fail loudly instead of splicing
// incompatible datasets.
func TestCheckpointRefusesForeignManifest(t *testing.T) {
	dir := t.TempDir()
	serialize(t, checkpointTestConfig(dir))

	other := checkpointTestConfig(dir)
	other.Seed = 10
	other.Resume = true
	if _, err := Generate(other); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("resume with different seed: err = %v, want fingerprint mismatch", err)
	}

	// Workers is a speed knob, not an output shaper: changing it must
	// still fingerprint-match.
	fast := checkpointTestConfig(dir)
	fast.Workers = 7
	fast.Resume = true
	if _, err := Generate(fast); err != nil {
		t.Fatalf("resume with different Workers: %v", err)
	}
}

// TestCheckpointRefusesClobber: without Resume, an existing checkpoint
// directory is an error, not a silent overwrite.
func TestCheckpointRefusesClobber(t *testing.T) {
	dir := t.TempDir()
	serialize(t, checkpointTestConfig(dir))
	if _, err := Generate(checkpointTestConfig(dir)); err == nil || !strings.Contains(err.Error(), "already holds a checkpoint") {
		t.Fatalf("second run without Resume: err = %v, want clobber refusal", err)
	}
}

// TestResumeRequiresDir: Resume without a CheckpointDir is a config
// error.
func TestResumeRequiresDir(t *testing.T) {
	cfg := checkpointTestConfig("")
	cfg.Resume = true
	if _, err := Generate(cfg); err == nil {
		t.Fatal("Resume without CheckpointDir should fail")
	}
}

// TestCheckpointThroughInjectedFS: Config.FS carries every checkpoint
// write (manifest and WAL), and being a durability knob rather than an
// output shaper it neither perturbs the generated bytes nor enters the
// resume fingerprint.
func TestCheckpointThroughInjectedFS(t *testing.T) {
	dir := t.TempDir()
	fsys, err := iofault.New(iofault.OS, iofault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkpointTestConfig(dir)
	cfg.FS = fsys
	got := serialize(t, cfg)
	if want := serialize(t, checkpointTestConfig("")); !bytes.Equal(got, want) {
		t.Fatal("injected-FS checkpointed run differs from plain run")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest not written through injected FS: %v", err)
	}
	// Resuming the same checkpoint with a different FS (the real disk)
	// must fingerprint-match: FS shapes durability, not output.
	plain := checkpointTestConfig(dir)
	plain.Resume = true
	if _, err := Generate(plain); err != nil {
		t.Fatalf("resume without injected FS: %v", err)
	}
}

// TestCheckpointDiskFullSurfaces: a full disk at checkpoint-open time
// fails generation loudly with the real errno instead of silently
// producing an uncheckpointed dataset.
func TestCheckpointDiskFullSurfaces(t *testing.T) {
	fsys, err := iofault.New(iofault.OS, iofault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	fsys.Break(syscall.ENOSPC)
	cfg := checkpointTestConfig(t.TempDir())
	cfg.FS = fsys
	if _, err := Generate(cfg); err == nil || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("generate on full disk: err = %v, want ENOSPC", err)
	}
}

// TestResumeFreshDirStartsClean: Resume against an empty directory is a
// fresh start, so crash-before-manifest restarts work unattended.
func TestResumeFreshDirStartsClean(t *testing.T) {
	dir := t.TempDir()
	cfg := checkpointTestConfig(dir)
	cfg.Resume = true
	got := serialize(t, cfg)
	want := serialize(t, checkpointTestConfig(""))
	if !bytes.Equal(got, want) {
		t.Fatal("fresh-dir resume differs from plain run")
	}
}

// TestFingerprintPinned: the manifest fingerprint of a fixed
// configuration is a constant, so a checkpoint written by an earlier
// build still resumes. The value was computed when IPDivisor and
// MidTierCampaigns were still Config fields, at their defaults.
func TestFingerprintPinned(t *testing.T) {
	const want = "5ace75209a4119f4aae7013f6e1f686960afdab366c49a426831c8199efb886f"
	dir := t.TempDir()
	serialize(t, checkpointTestConfig(dir))
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint != want {
		t.Fatalf("fingerprint %s, want %s", m.Fingerprint, want)
	}
}
