package wal

// One table of segment byte images, read three ways. Open, Verify and
// the Iterator step the same walker, so this is not a cross-check of two
// decoders: it pins that the three policies around the walker report the
// same frames, the same stop offset and the same torn/corrupt verdict,
// and that Open refuses what it must without touching the disk. The
// images double as FuzzWALFrame's checked-in seeds.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// image is segment 1 of a WAL directory and what every reader must make
// of it: the batch tags and gap frames before the stop, where the stop
// is, and what kind it is ("ok" for none).
type image struct {
	name   string
	seg    []byte
	sealed bool // a healthy segment 2 follows: segment 1 is not the final one
	want   reading
}

type reading struct {
	tags  []uint64
	gaps  int
	off   int64
	class string // "ok", "torn", "corrupt"
}

// sealedTag is the one batch in the healthy successor segment.
const sealedTag = 99

func metaFrame(t *testing.T, seq uint64) []byte {
	return EncodeRawFrame(nil, kindMeta, metaPayload(t, FormatNameV2, seq)[1:])
}

func batchFrame(tag uint64) []byte { return EncodeBatchFrame(nil, tag, mkRecords(tag*10, 2)) }

func images(t *testing.T) []image {
	t.Helper()
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	gap := EncodeRawFrame(nil, kindGap, []byte(`{"reason":"append: enospc","batches":2,"records":5}`))
	head := cat(metaFrame(t, 1), gap, batchFrame(1), batchFrame(2))
	headTags := []uint64{1, 2}
	flipped := batchFrame(3)
	flipped[5] ^= 0xff // a CRC byte
	unknown := EncodeRawFrame(nil, 0x7f, []byte("a kind this binary does not know"))
	at := func(class string) reading {
		return reading{tags: headTags, gaps: 1, off: int64(len(head)), class: class}
	}
	return []image{
		{name: "healthy", seg: head, want: at("ok")},
		{name: "healthy-sealed", seg: head, sealed: true, want: at("ok")},
		{name: "torn-mid-header", seg: cat(head, batchFrame(3)[:5]), want: at("torn")},
		{name: "torn-mid-payload", seg: cat(head, batchFrame(3)[:40]), want: at("torn")},
		{name: "flipped-crc", seg: cat(head, flipped, batchFrame(4)), want: at("torn")},
		{name: "unknown-kind-then-batch", seg: cat(head, unknown, batchFrame(4)), want: at("corrupt")},
		{name: "undecodable-gap-body", seg: cat(head, EncodeRawFrame(nil, kindGap, []byte("{not json"))), want: at("corrupt")},
		{name: "undecodable-batch-body", seg: cat(head, EncodeRawFrame(nil, kindBatch, []byte{1, 2, 3})), want: at("corrupt")},
		{name: "second-meta-frame", seg: cat(head, metaFrame(t, 1), batchFrame(4)), want: at("corrupt")},
		{name: "non-meta-first-frame", seg: cat(batchFrame(1), batchFrame(2)), want: reading{class: "corrupt"}},
		{name: "torn-meta-frame", seg: metaFrame(t, 1)[:20], want: reading{class: "torn"}},
		{name: "sealed-torn-mid-payload", seg: cat(head, batchFrame(3)[:40]), sealed: true, want: at("torn")},
		{name: "sealed-flipped-crc", seg: cat(head, flipped), sealed: true, want: at("torn")},
		{name: "sealed-unknown-kind", seg: cat(head, unknown, batchFrame(4)), sealed: true, want: at("corrupt")},
	}
}

// write lays the image out as a WAL directory.
func (im image) write(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string][]byte{segmentName(1): im.seg}
	if im.sealed {
		files[segmentName(2)] = append(metaFrame(t, 2), batchFrame(sealedTag)...)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// refused says whether Open must refuse the image: damage no crash
// explains is a corrupt frame anywhere and a torn one behind a seal.
func (im image) refused() bool {
	return im.want.class == "corrupt" || (im.want.class == "torn" && im.sealed)
}

// scanned is what a Recovery says about segment 1.
func scanned(rec *Recovery) reading {
	seg := rec.Segments[0]
	got := reading{gaps: seg.GapFrames, off: seg.GoodBytes, class: "ok"}
	for _, b := range rec.Batches[:seg.Frames] {
		got.tags = append(got.tags, b.Tag)
	}
	switch {
	case seg.Corrupt:
		got.class = "corrupt"
	case seg.Torn:
		got.class = "torn"
	}
	return got
}

// damaged is what a reader's refusal says: where, and which kind.
func damaged(t *testing.T, err error) (off int64, class string) {
	t.Helper()
	var d *damageError
	if !errors.As(err, &d) {
		t.Fatalf("refusal is not a damage error: %v", err)
	}
	if d.corrupt {
		return d.off, "corrupt"
	}
	return d.off, "torn"
}

// tailed drains an Iterator and reports what it made of segment 1.
func tailed(t *testing.T, dir string, segLen int) (reading, []uint64) {
	t.Helper()
	it, err := NewIterator(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := reading{class: "ok"}
	var beyond []uint64 // tags read past segment 1
	for {
		b, ok, err := it.Next()
		seq, off := it.Pos()
		if err != nil {
			if _, _, again := it.Next(); again == nil || again.Error() != err.Error() {
				t.Errorf("iterator error is not permanent: %v, then %v", err, again)
			}
			got.off, got.class = damaged(t, err)
			break
		}
		if !ok {
			// Caught up. Past the seal, segment 1 was read to its end; on
			// it and short of its end, the rest is a pending tail — the
			// iterator's reading of a torn frame.
			if got.off = off; seq > 1 {
				got.off = int64(segLen)
			} else if off < int64(segLen) {
				got.class = "torn"
			}
			break
		}
		if seq == 1 {
			got.tags = append(got.tags, b.Tag)
		} else {
			beyond = append(beyond, b.Tag)
		}
	}
	got.gaps = len(it.Gaps())
	return got, beyond
}

func TestReadersAgree(t *testing.T) {
	for _, im := range images(t) {
		t.Run(im.name, func(t *testing.T) {
			dir := im.write(t)
			before := dirState(t, dir)

			rec, err := Verify(dir, testEpoch)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if got := scanned(rec); !reflect.DeepEqual(got, im.want) {
				t.Errorf("Verify read %+v, want %+v", got, im.want)
			}
			if rec.Healthy() != (im.want.class == "ok") {
				t.Errorf("Verify: Healthy() = %v for a %s image", rec.Healthy(), im.want.class)
			}

			got, beyond := tailed(t, dir, len(im.seg))
			if !reflect.DeepEqual(got, im.want) {
				t.Errorf("Iterator read %+v, want %+v", got, im.want)
			}
			if crossed := len(beyond) > 0; crossed != (im.sealed && im.want.class == "ok") {
				t.Errorf("Iterator read %v past segment 1 of a %s image (sealed=%v)", beyond, im.want.class, im.sealed)
			}
			sameDirState(t, dirState(t, dir), before, "after Verify and Iterator")

			l, rec, err := Open(dir, Options{Epoch: testEpoch})
			if im.refused() {
				if err == nil {
					l.Close()
					t.Fatalf("Open accepted a %s image (sealed=%v)", im.want.class, im.sealed)
				}
				if off, class := damaged(t, err); off != im.want.off || class != im.want.class {
					t.Errorf("Open refused a %s frame at %d, want %s at %d", class, off, im.want.class, im.want.off)
				}
				sameDirState(t, dirState(t, dir), before, "after a refused Open")
				// The operator's say-so: Repair truncates, and Open takes the
				// intact prefix from then on.
				if _, err := Repair(dir, testEpoch); err != nil {
					t.Fatalf("Repair: %v", err)
				}
				if l, rec, err = Open(dir, Options{Epoch: testEpoch}); err != nil {
					t.Fatalf("Open after Repair: %v", err)
				}
				want := im.want
				want.class = "ok"
				if got := scanned(rec); !reflect.DeepEqual(got, want) {
					t.Errorf("Open after Repair read %+v, want %+v", got, want)
				}
			} else {
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				if got := scanned(rec); !reflect.DeepEqual(got, im.want) {
					t.Errorf("Open read %+v, want %+v", got, im.want)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Either way the log is whole again: a torn tail Open truncated
			// itself, everything else Repair did.
			if rec, err := Verify(dir, testEpoch); err != nil || !rec.Healthy() {
				t.Errorf("log not healthy after Open: %v", err)
			}
		})
	}
}

const walCorpusDir = "testdata/fuzz/FuzzWALFrame"

// TestWALSeedCorpus keeps FuzzWALFrame's checked-in corpus equal to the
// images above (-update rewrites it), so plain go test replays them.
func TestWALSeedCorpus(t *testing.T) {
	seeds := map[string][]byte{}
	for _, im := range images(t) {
		if !im.sealed { // the sealed rows repeat a segment image
			seeds[im.name] = im.seg
		}
	}
	for name, seg := range seeds {
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seg)
		path := filepath.Join(walCorpusDir, name)
		if *updateGolden {
			if err := os.MkdirAll(walCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != file {
			t.Errorf("%s: checked-in seed is stale (run go test ./internal/wal -run TestWALSeedCorpus -update): %v", name, err)
		}
	}
	if files, _ := os.ReadDir(walCorpusDir); len(files) != len(seeds) {
		t.Errorf("%d files in %s, %d seeds", len(files), walCorpusDir, len(seeds))
	}
}

// FuzzWALFrame: whatever bytes a segment holds, the walker does not
// panic, every step it takes advances by a whole frame, a stop is
// repeatable, it allocates in proportion to the input, and a batch it
// yields re-encodes through EncodeBatchFrame to bytes that read back as
// the same batch. Each input is also tried with every frame envelope
// re-sealed, so mutations get past the CRC to the body decoders. Plain
// go test runs the checked-in corpus only.
func FuzzWALFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		checkWalk(t, seg)
		checkWalk(t, resealed(seg))
	})
}

// resealed copies seg with the CRC of every length-delimited frame in it
// recomputed, for as far as the lengths stay inside the bytes.
func resealed(seg []byte) []byte {
	out := append([]byte(nil), seg...)
	for rest := out; len(rest) > frameHeaderSize; {
		n := frameHeaderSize + int(binary.LittleEndian.Uint32(rest))
		if n <= frameHeaderSize || n > len(rest) {
			break
		}
		sealFrame(rest[:n])
		rest = rest[n:]
	}
	return out
}

func checkWalk(t *testing.T, seg []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := walker{name: segmentName(1), seq: 1}
	var batches []Batch
	for off := 0; ; {
		f, n, st, err := w.next(seg[off:])
		if st != stopNone {
			if _, n2, st2, _ := w.next(seg[off:]); n != 0 || n2 != 0 || st2 != st {
				t.Fatalf("stop %d at %d consumed %d bytes, then stop %d consuming %d", st, off, n, st2, n2)
			}
			if (st == stopEnd) != (off == len(seg)) || (err != nil && st != stopCorrupt) {
				t.Fatalf("stop %d (err %v) at %d of %d bytes", st, err, off, len(seg))
			}
			break
		}
		if n <= frameHeaderSize || n > len(seg)-off || err != nil {
			t.Fatalf("step at %d of %d bytes read %d (err %v)", off, len(seg), n, err)
		}
		off += n
		if f.kind == kindBatch {
			batches = append(batches, f.batch)
		}
	}
	runtime.ReadMemStats(&after)
	if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(seg)+64<<10); spent > limit {
		t.Fatalf("walking %d bytes allocated %d, limit %d", len(seg), spent, limit)
	}
	for _, b := range batches {
		frame := EncodeBatchFrame(nil, b.Tag, b.Records)
		again := walker{meta: true}
		f, n, st, err := again.next(frame)
		if err != nil || st != stopNone || n != len(frame) || !reflect.DeepEqual(f.batch, b) {
			t.Fatalf("batch tag %d (%d records) does not survive a re-encode: n=%d of %d, stop %d, err %v",
				b.Tag, len(b.Records), n, len(frame), st, err)
		}
	}
}
