package wal

// Iterator is the tailing read policy over a WAL directory: the query
// engine's follower uses it to read a log that is still being written.
// It steps the same walker as the recovery scan (wal.go), so the two
// agree on what a frame is; unlike scan, which reads whole segments at
// once, an Iterator holds a byte position and yields one batch per call,
// so a caller can drain everything durable today and pick up new frames
// as the writer appends them.
//
// The torn-tail rule shapes the cursor's movement. A segment is sealed
// — fsynced and closed — before its successor is created, so:
//
//   - on the final segment, a torn frame is a pending tail: the writer
//     may still be mid-append, and Next reports "caught up" rather than
//     an error;
//   - once a successor exists, the current segment is sealed, and a torn
//     frame there is damage — as a corrupt frame (CRC-valid, does not
//     decode) is on any segment. Open refuses exactly the same two.
//
// Degraded-mode recovery preserves both properties: a writer that
// degrades seals its segment at the last frame-aligned size before the
// probe creates a successor, and the successor opens with a gap frame.
// The iterator collects gap frames into Gaps() as it crosses them, so
// a tailing follower can account for dropped records in real time.

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"time"

	"honeyfarm/internal/iofault"
)

// Iterator reads a WAL directory batch by batch in log order. It is
// not safe for concurrent use; it is safe to use while a Log appends
// to the same directory from this or another process.
type Iterator struct {
	dir  string
	w    walker       // current segment (seq 0 until one is found) and the established epoch
	off  int64        // consumed byte offset within the current segment
	f    iofault.File // current segment, nil before open / after advance
	buf  []byte       // bytes read beyond off, not yet consumed
	gaps []Gap        // gap frames crossed so far, in log order
}

// maxStepsPerNext caps the internal frame/segment advance loop of one
// Next call. Each step consumes a frame or advances a segment, so the
// cap is unreachable outside pathological inputs; hitting it reports
// "caught up" and the caller's retry resumes from the saved position.
const maxStepsPerNext = 1 << 16

// NewIterator positions an iterator at the start of the WAL in dir.
// The directory may be empty or not yet created: Next reports "caught
// up" until a writer produces the first segment.
func NewIterator(dir string) (*Iterator, error) {
	if info, err := iofault.OS.Stat(dir); err == nil && !info.IsDir() {
		return nil, fmt.Errorf("wal: %s is not a directory", dir)
	}
	return &Iterator{dir: dir}, nil
}

// Next returns the next intact batch in log order. ok is false with a
// nil error when the iterator is caught up: every durable frame has
// been consumed and the bytes past the cursor (if any) do not yet form
// a complete frame on the final segment — call Next again after the
// writer makes progress. A non-nil error is permanent: damage (a torn
// frame on a sealed segment, a corrupt one anywhere, format/sequence/
// epoch mismatches) or an I/O failure. Gap frames are consumed silently
// into Gaps().
func (it *Iterator) Next() (Batch, bool, error) {
	for step := 0; step < maxStepsPerNext; step++ {
		if it.f == nil {
			opened, err := it.open()
			if err != nil || !opened {
				return Batch{}, false, err
			}
		}
		f, n, st, err := it.w.next(it.buf)
		if st == stopEnd || st == stopTorn {
			// Re-read the unconsumed tail: a frame may have completed since
			// the last poll. Reading from it.off (not extending buf) also
			// recovers if a restarted writer truncated a torn tail we had
			// buffered — consumed offsets are always ≤ the truncation point.
			if err := it.refill(); err != nil {
				return Batch{}, false, err
			}
			f, n, st, err = it.w.next(it.buf)
		}
		switch {
		case err != nil:
			return Batch{}, false, err
		case st == stopCorrupt:
			return Batch{}, false, &damageError{it.w.name, it.off, true}
		case st != stopNone:
			sealed, err := it.successorExists()
			if err != nil {
				return Batch{}, false, err
			}
			if !sealed {
				return Batch{}, false, nil // pending tail: caught up for now
			}
			if st == stopTorn {
				return Batch{}, false, &damageError{it.w.name, it.off, false}
			}
			if err := it.f.Close(); err != nil {
				return Batch{}, false, fmt.Errorf("wal: closing segment: %w", err)
			}
			it.f, it.off, it.w.seq = nil, 0, it.w.seq+1
			continue
		}
		it.buf = it.buf[n:]
		it.off += int64(n)
		switch f.kind {
		case kindGap:
			it.gaps = append(it.gaps, f.gap)
		case kindBatch:
			return f.batch, true, nil
		}
	}
	return Batch{}, false, nil // step cap: resume from the saved position
}

// open opens the segment the cursor points at: the lowest sequence
// present when none has been read yet, the successor otherwise. opened
// is false (nil error) when that segment does not exist yet.
func (it *Iterator) open() (opened bool, err error) {
	seq := it.w.seq
	if seq == 0 {
		segs, err := listSegments(iofault.OS, it.dir)
		if err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				return false, nil // directory not created yet
			}
			return false, fmt.Errorf("wal: listing %s: %w", it.dir, err)
		}
		if len(segs) == 0 {
			return false, nil
		}
		seq = segs[0].Seq
	}
	f, err := iofault.OS.OpenFile(filepath.Join(it.dir, segmentName(seq)), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("wal: opening segment: %w", err)
	}
	it.f, it.off, it.buf = f, 0, nil
	it.w = walker{name: segmentName(seq), seq: seq, epoch: it.w.epoch}
	return true, nil
}

// refill replaces buf with every byte from the consumed offset to EOF.
func (it *Iterator) refill() error {
	if _, err := it.f.Seek(it.off, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seeking segment: %w", err)
	}
	data, err := io.ReadAll(it.f)
	if err != nil {
		return fmt.Errorf("wal: reading segment: %w", err)
	}
	it.buf = data
	return nil
}

// successorExists reports whether segment seq+1 exists — the signal
// that the current segment is sealed and will never grow again.
func (it *Iterator) successorExists() (bool, error) {
	_, err := iofault.OS.Stat(filepath.Join(it.dir, segmentName(it.w.seq+1)))
	if err == nil {
		return true, nil
	}
	if errors.Is(err, iofs.ErrNotExist) {
		return false, nil
	}
	return false, fmt.Errorf("wal: probing successor segment: %w", err)
}

// Epoch returns the store epoch recorded in the log's meta frames; ok
// is false until the first meta frame has been consumed.
func (it *Iterator) Epoch() (time.Time, bool) {
	return it.w.epoch, !it.w.epoch.IsZero()
}

// Pos returns the cursor: the current segment sequence number and the
// consumed byte offset within it. Both are zero before the first
// segment is found.
func (it *Iterator) Pos() (seq uint64, off int64) {
	return it.w.seq, it.off
}

// Gaps returns a copy of the degraded-mode outage records the cursor
// has crossed so far, in log order. A tailing follower polls this
// after draining to account for records the writer dropped.
func (it *Iterator) Gaps() []Gap {
	if len(it.gaps) == 0 {
		return nil
	}
	out := make([]Gap, len(it.gaps))
	copy(out, it.gaps)
	return out
}

// Close releases the open segment handle, if any. The iterator must
// not be used afterwards.
func (it *Iterator) Close() error {
	if it.f == nil {
		return nil
	}
	err := it.f.Close()
	it.f = nil
	return err
}
