package iofault

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"syscall"
)

// Plan is a seeded, fully deterministic disk-fault schedule, the
// filesystem sibling of faults.Plan. Rates are probabilities in [0, 1];
// each mutating filesystem op draws from splitmix64 streams keyed by
// (Seed, stream, op index), so the same plan over the same op sequence
// injects the same faults. Op indexes are assigned in arrival order:
// drivers that want a reproducible schedule must issue their mutating
// ops from one goroutine (the WAL property tests set SyncEvery above
// the record count so the pipelined committer never races the
// appender's op stream).
type Plan struct {
	Seed int64

	// Write-op fault classes. A write draws at most one: EIO beats
	// ENOSPC beats a short write. A short write persists a deterministic
	// prefix of the buffer and reports EIO, so the caller sees exactly
	// what a mid-write device error leaves on disk.
	WriteErrRate   float64
	ENOSPCRate     float64
	ShortWriteRate float64

	// SyncErrRate fails fsync with EIO — the failure mode that makes
	// "acknowledged" and "durable" diverge.
	SyncErrRate float64

	// RenameErrRate fails FS.Rename with EIO, breaking the commit step
	// of atomic whole-file writes.
	RenameErrRate float64

	// CreateENOSPCRate fails file creation with ENOSPC (a full disk
	// refuses new segments before it refuses appends).
	CreateENOSPCRate float64

	// CrashAfterOps, when positive, switches the injector to crash-point
	// mode: the first CrashAfterOps mutating ops execute normally and
	// every later one silently succeeds without touching disk. The disk
	// is then exactly what a kernel that stopped after op K would have
	// left, while the process under test runs to completion believing
	// all its writes landed.
	CrashAfterOps int64
}

// Validate checks the plan's rates and knobs.
func (p Plan) Validate() error {
	for name, r := range map[string]float64{
		"write_err_rate": p.WriteErrRate, "enospc_rate": p.ENOSPCRate,
		"short_write_rate": p.ShortWriteRate, "sync_err_rate": p.SyncErrRate,
		"rename_err_rate": p.RenameErrRate, "create_enospc_rate": p.CreateENOSPCRate,
	} {
		if r < 0 || r > 1 {
			return fmt.Errorf("iofault: %s = %v out of [0,1]", name, r)
		}
	}
	if sum := p.WriteErrRate + p.ENOSPCRate + p.ShortWriteRate; sum > 1 {
		return fmt.Errorf("iofault: write-op rates sum to %v > 1", sum)
	}
	if p.CrashAfterOps < 0 {
		return fmt.Errorf("iofault: negative crash point %d", p.CrashAfterOps)
	}
	return nil
}

// Decision streams, one per fault class, so the write-class draw for op
// i never correlates with the short-write length draw for the same op.
const (
	streamWriteClass uint64 = 0x77726f70 // write-op fault class
	streamShortLen   uint64 = 0x73686c6e // short-write prefix length
	streamSync       uint64 = 0x73796e63 // fsync failure gate
	streamRename     uint64 = 0x726e6d65 // rename failure gate
	streamCreate     uint64 = 0x63726174 // create ENOSPC gate
)

// mix64 is the splitmix64 finalizer over (seed, stream, index), the
// same mixing discipline as faults.mix64 and workload.shardSeed.
func mix64(seed int64, stream, i uint64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(i+1) + 0xd1b54a32d192ed03*stream
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a stream draw onto [0, 1).
func (p Plan) unit(stream uint64, i int64) float64 {
	return float64(mix64(p.Seed, stream, uint64(i))>>11) / (1 << 53)
}

// Stats counts what an injector has done, by class.
type Stats struct {
	// Ops is the total number of mutating filesystem ops observed
	// (writes, fsyncs, truncates, creates, renames, removes).
	Ops int64
	// Per-class injected fault counts.
	WriteErrs   int
	ENOSPCs     int
	ShortWrites int
	SyncErrs    int
	RenameErrs  int
	CreateErrs  int
	// Silenced counts mutating ops swallowed by crash-point mode.
	Silenced int
	// BrokenErrs counts mutating ops refused by the manual Break gate.
	BrokenErrs int
}

// Injector is an FS decorator that injects the plan's faults into every
// mutating op. Reads, stats and directory listings pass through
// untouched — the model is a disk that fails writes, not one that lies
// about what it already holds. Safe for concurrent use.
type Injector struct {
	inner FS
	plan  Plan

	mu     sync.Mutex
	nextOp int64
	broken error // manual outage gate (Break/Heal), nil when healthy
	stats  Stats
}

// New wraps inner with the plan's fault schedule.
func New(inner FS, plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{inner: inner, plan: plan}, nil
}

// Break makes every subsequent mutating op fail with cause (wrapped as
// an InjectedError) until Heal — the manual outage window the
// ENOSPC-window tests open and close around a live WAL.
func (in *Injector) Break(cause error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.broken = cause
}

// Heal closes the outage window opened by Break.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.broken = nil
}

// Ops returns the number of mutating ops observed so far. A fault-free
// reference run reads this to learn the schedule length the
// crash-at-every-syscall test then iterates over.
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.nextOp
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decision is the injector's verdict on one mutating op.
type decision struct {
	op       int64
	silenced bool
	err      error // non-nil: fail the op with this
	shortLen int   // >= 0: write only this prefix, then fail
}

// decide assigns the next op index and draws the op's fate. class is
// one of the stream tags; rate the class's failure probability.
func (in *Injector) decide(class uint64, rate float64, opName, path string, errno error) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	d := decision{op: in.nextOp, shortLen: -1}
	in.nextOp++
	in.stats.Ops++
	if in.plan.CrashAfterOps > 0 && d.op >= in.plan.CrashAfterOps {
		d.silenced = true
		in.stats.Silenced++
		return d
	}
	if in.broken != nil {
		d.err = &InjectedError{Op: opName, Path: path, Err: in.broken}
		in.stats.BrokenErrs++
		return d
	}
	if rate > 0 && in.plan.unit(class, d.op) < rate {
		d.err = &InjectedError{Op: opName, Path: path, Err: errno}
		in.countLocked(class)
		return d
	}
	return d
}

// decideWrite is decide for the three-way write-op class draw.
func (in *Injector) decideWrite(path string, n int) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	d := decision{op: in.nextOp, shortLen: -1}
	in.nextOp++
	in.stats.Ops++
	if in.plan.CrashAfterOps > 0 && d.op >= in.plan.CrashAfterOps {
		d.silenced = true
		in.stats.Silenced++
		return d
	}
	if in.broken != nil {
		d.err = &InjectedError{Op: "write", Path: path, Err: in.broken}
		in.stats.BrokenErrs++
		return d
	}
	u := in.plan.unit(streamWriteClass, d.op)
	switch {
	case u < in.plan.WriteErrRate:
		d.err = &InjectedError{Op: "write", Path: path, Err: syscall.EIO}
		in.stats.WriteErrs++
	case u < in.plan.WriteErrRate+in.plan.ENOSPCRate:
		d.err = &InjectedError{Op: "write", Path: path, Err: syscall.ENOSPC}
		in.stats.ENOSPCs++
	case u < in.plan.WriteErrRate+in.plan.ENOSPCRate+in.plan.ShortWriteRate && n > 1:
		d.err = &InjectedError{Op: "write", Path: path, Err: syscall.EIO}
		d.shortLen = int(in.plan.unit(streamShortLen, d.op) * float64(n))
		in.stats.ShortWrites++
	}
	return d
}

// countLocked bumps the per-class counter for a decide() fault.
func (in *Injector) countLocked(class uint64) {
	switch class {
	case streamSync:
		in.stats.SyncErrs++
	case streamRename:
		in.stats.RenameErrs++
	case streamCreate:
		in.stats.CreateErrs++
	}
}

// OpenFile counts as a mutating op only when it can change the disk
// (O_CREATE or O_TRUNC). A silenced creating open returns a black-hole
// handle, since after the crash point the file never came to exist.
func (in *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if flag&(os.O_CREATE|os.O_TRUNC) != 0 {
		d := in.decide(streamCreate, in.plan.CreateENOSPCRate, "create", name, syscall.ENOSPC)
		if d.silenced {
			return &blackholeFile{name: name}, nil
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectorFile{in: in, f: f}, nil
}

// Rename is a mutating op; silenced renames leave both paths untouched.
func (in *Injector) Rename(oldpath, newpath string) error {
	d := in.decide(streamRename, in.plan.RenameErrRate, "rename", newpath, syscall.EIO)
	if d.silenced {
		return nil
	}
	if d.err != nil {
		return d.err
	}
	return in.inner.Rename(oldpath, newpath)
}

// Remove is a mutating op (no rate-based class of its own, but it
// advances the crash-point schedule and respects the Break gate).
func (in *Injector) Remove(name string) error {
	d := in.decide(0, 0, "remove", name, nil)
	if d.silenced {
		return nil
	}
	if d.err != nil {
		return d.err
	}
	return in.inner.Remove(name)
}

func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) { return in.inner.ReadDir(name) }
func (in *Injector) Stat(name string) (fs.FileInfo, error)      { return in.inner.Stat(name) }

// MkdirAll passes through: directory creation is idempotent setup the
// durability code performs before any data is at risk, and counting it
// would make crash schedules depend on whether a run created or reused
// its directory. The Break gate still applies (a full disk refuses new
// directories too).
func (in *Injector) MkdirAll(name string, perm fs.FileMode) error {
	in.mu.Lock()
	broken := in.broken
	in.mu.Unlock()
	if broken != nil {
		return &InjectedError{Op: "mkdir", Path: name, Err: broken}
	}
	return in.inner.MkdirAll(name, perm)
}

// injectorFile gates a real handle's mutating ops through the injector.
type injectorFile struct {
	in *Injector
	f  File
}

func (g *injectorFile) Read(p []byte) (int, error)                { return g.f.Read(p) }
func (g *injectorFile) Seek(off int64, whence int) (int64, error) { return g.f.Seek(off, whence) }
func (g *injectorFile) Close() error                              { return g.f.Close() }
func (g *injectorFile) Name() string                              { return g.f.Name() }

func (g *injectorFile) Write(p []byte) (int, error) {
	d := g.in.decideWrite(g.f.Name(), len(p))
	if d.silenced {
		return len(p), nil
	}
	if d.err != nil {
		if d.shortLen >= 0 {
			n, werr := g.f.Write(p[:d.shortLen])
			if werr != nil {
				return n, werr
			}
			return n, d.err
		}
		return 0, d.err
	}
	return g.f.Write(p)
}

func (g *injectorFile) Sync() error {
	d := g.in.decide(streamSync, g.in.plan.SyncErrRate, "sync", g.f.Name(), syscall.EIO)
	if d.silenced {
		return nil
	}
	if d.err != nil {
		return d.err
	}
	return g.f.Sync()
}

func (g *injectorFile) Truncate(size int64) error {
	d := g.in.decide(0, 0, "truncate", g.f.Name(), nil)
	if d.silenced {
		return nil
	}
	if d.err != nil {
		return d.err
	}
	return g.f.Truncate(size)
}

// blackholeFile is the handle a silenced create returns: writes vanish,
// reads see an empty file — exactly what the disk holds for a file that
// was never created. Its ops do not advance the op schedule; a black
// hole only exists past the crash point, where every op is silenced
// whatever its index.
type blackholeFile struct {
	name string
	off  int64
}

func (b *blackholeFile) Read(p []byte) (int, error) { return 0, io.EOF }
func (b *blackholeFile) Close() error               { return nil }
func (b *blackholeFile) Name() string               { return b.name }
func (b *blackholeFile) Sync() error                { return nil }
func (b *blackholeFile) Truncate(size int64) error  { return nil }

func (b *blackholeFile) Write(p []byte) (int, error) {
	b.off += int64(len(p))
	return len(p), nil
}

func (b *blackholeFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		b.off = off
	case io.SeekCurrent:
		b.off += off
	case io.SeekEnd:
		b.off = off
	}
	return b.off, nil
}
