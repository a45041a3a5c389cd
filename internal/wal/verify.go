package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/iofault"
)

// Read reads a WAL directory the way Open recovers it, and writes
// nothing: it refuses the damage Open refuses, leaves a torn tail on the
// final segment unread rather than truncating it, and leaves stale *.tmp
// files in place. The epoch is the one the meta frames record. A writer
// may be appending to the directory meanwhile: a segment is sealed
// before its successor exists, so every listed segment but the last is
// whole, and reading each up to its listed size yields a batch-aligned
// prefix of the log.
func Read(dir string) (*Recovery, error) {
	return scan(iofault.OS, dir, time.Time{}, true)
}

// Verify scans a WAL directory read-only and reports per-segment frame
// and checksum statistics without modifying anything — orphaned *.tmp
// files are listed in the recovery, not swept. Unlike Open it tolerates
// damage anywhere: a torn or corrupt segment simply shows the intact
// prefix it still holds and says which of the two stopped it. epoch may
// be zero when the directory has at least one intact meta frame.
func Verify(dir string, epoch time.Time) (*Recovery, error) {
	return scan(iofault.OS, dir, epoch, false)
}

// Healthy reports whether the recovery describes a WAL that Open would
// accept unchanged: no torn bytes anywhere. Orphaned tmp files do not
// count against health — Open sweeps them as a matter of course.
func (r *Recovery) Healthy() bool { return r.TornBytes == 0 }

// Repair truncates every damaged segment to its intact-frame prefix,
// fsyncing each repaired file, sweeps orphaned *.tmp files, and returns
// the post-repair state. This is the fsck salvage path for damage Open
// refuses (a torn frame in a non-final segment, a corrupt frame
// anywhere); data after a damaged frame is unrecoverable because frames
// are located sequentially.
func Repair(dir string, epoch time.Time) (*Recovery, error) {
	fsys := iofault.OS
	rec, err := scan(fsys, dir, epoch, false)
	if err != nil {
		return nil, err
	}
	for i := range rec.Segments {
		seg := &rec.Segments[i]
		if !seg.Torn {
			continue
		}
		f, err := fsys.OpenFile(filepath.Join(dir, seg.Name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: opening %s for repair: %w", seg.Name, err)
		}
		if err := f.Truncate(seg.GoodBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating %s: %w", seg.Name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing %s: %w", seg.Name, err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("wal: closing %s: %w", seg.Name, err)
		}
	}
	if _, err := atomicio.SweepTmp(fsys, dir); err != nil {
		return nil, fmt.Errorf("wal: sweeping orphaned tmp files: %w", err)
	}
	return scan(fsys, dir, epoch, false)
}
