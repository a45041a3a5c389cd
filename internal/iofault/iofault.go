// Package iofault abstracts the filesystem behind the durability layer
// (WAL segments, atomic whole-file writes) so disk failure can be
// injected deterministically. The paper's honeyfarm
// stayed up for 15 months; over a horizon like that disks return EIO,
// fill up mid-rotation, fail an fsync, or lose a rename to a crash, and
// every one of those paths must be exercised, not hoped about.
//
// The package has two halves:
//
//   - FS/File: the minimal interface pair the durability code writes
//     through, with OS as the passthrough default. Production code pays
//     one interface dispatch per syscall and nothing else.
//   - Injector: an FS decorator that consumes a seeded splitmix64
//     schedule (Plan, the same mixing discipline as internal/faults) to
//     produce EIO, ENOSPC, short writes, fsync failures, rename
//     failures, a manual Break/Heal outage gate, and a crash-point mode
//     that silences every mutating op after the Kth — the ALICE-style
//     "what if the kernel stopped here" model the crash-at-every-
//     syscall property test iterates over.
//
// Error classification: Transient reports the errnos worth retrying
// (ENOSPC-family — space can come back; EINTR/EAGAIN — the kernel asked
// for a retry). Everything else (EIO above all) is permanent: the WAL
// degrades instead of spinning on a dead disk.
package iofault

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// File is the per-handle surface the durability layer uses: sequential
// reads and writes, fsync, and the truncate the WAL needs to roll back a
// partially written frame.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file size without moving the offset.
	Truncate(size int64) error
}

// FS is the directory-level surface: open/create, the atomic rename
// that commits whole-file writes, and the listing/stat calls recovery
// scans use.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(name string, perm fs.FileMode) error
}

// OS is the passthrough FS over the real filesystem — the default
// everywhere an Options.FS / Config.FS field is left nil.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(name string, perm fs.FileMode) error { return os.MkdirAll(name, perm) }

// Transient reports whether a disk error is worth a bounded retry:
// out-of-space conditions clear when space is reclaimed, and
// EINTR/EAGAIN are the kernel asking for one. EIO and everything else
// are permanent — the caller should degrade, not spin.
func Transient(err error) bool {
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN)
}

// InjectedError marks a fault produced by an Injector. It wraps the
// real errno (syscall.EIO, syscall.ENOSPC, ...) so errors.Is and
// Transient classify injected faults exactly like kernel ones.
type InjectedError struct {
	Op   string // "write", "sync", "rename", "create", ...
	Path string
	Err  error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("iofault: injected %s error on %s: %v", e.Op, e.Path, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// IsInjected reports whether err (or anything it wraps) was produced by
// an Injector — tests use it to tell injected faults from real ones.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}
