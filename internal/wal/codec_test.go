package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/wire"
)

// quickRecord wraps a SessionRecord so testing/quick can generate it:
// time.Time and the nested slices need a custom generator (quick cannot
// fill unexported time fields), and strings are constrained to valid
// UTF-8 because encoding/json replaces invalid bytes with U+FFFD —
// "JSON semantics" is only well-defined on the UTF-8 domain.
type quickRecord struct{ rec *honeypot.SessionRecord }

func (quickRecord) Generate(r *rand.Rand, size int) reflect.Value {
	str := func() string {
		n := r.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			// Printable ASCII plus a few multi-byte runes.
			sb.WriteRune([]rune("abcXYZ09 /.:-_é漢🐝")[r.Intn(17)])
		}
		return sb.String()
	}
	when := func() time.Time {
		sec := int64(r.Intn(1 << 31)) // 1970..2038, well inside JSON's year range
		nsec := int64(r.Intn(1e9))
		// Whole-minute offsets: RFC 3339 (JSON's format) cannot carry a
		// seconds component, so offsets with one are lossy under JSON too.
		offset := (r.Intn(2*14*60) - 14*60) * 60
		loc := time.UTC
		if offset != 0 {
			loc = time.FixedZone("", offset)
		}
		return time.Unix(sec, nsec).In(loc)
	}
	rec := &honeypot.SessionRecord{
		ID:            r.Uint64(),
		HoneypotID:    r.Intn(500) - 100, // include negatives: the codec must carry any int
		Protocol:      honeypot.Protocol(r.Intn(2)),
		ClientIP:      fmt.Sprintf("%d.%d.%d.%d", r.Intn(256), r.Intn(256), r.Intn(256), r.Intn(256)),
		ClientPort:    r.Intn(65536),
		Start:         when(),
		End:           when(),
		ClientVersion: str(),
		Termination:   honeypot.Termination(r.Intn(4)),
	}
	for i := r.Intn(4); i > 0; i-- {
		rec.Logins = append(rec.Logins, honeypot.LoginAttempt{User: str(), Password: str(), Success: r.Intn(2) == 0})
	}
	for i := r.Intn(4); i > 0; i-- {
		rec.Commands = append(rec.Commands, honeypot.CommandRecord{Input: str(), Known: r.Intn(2) == 0})
	}
	for i := r.Intn(3); i > 0; i-- {
		rec.URIs = append(rec.URIs, "http://"+str())
	}
	for i := r.Intn(3); i > 0; i-- {
		rec.Files = append(rec.Files, honeypot.FileRecord{Path: str(), Hash: str(), Op: str(), Size: r.Intn(1 << 20)})
	}
	if r.Intn(2) == 0 {
		b := make([]byte, r.Intn(64))
		r.Read(b)
		rec.Transcript = b
	}
	if len(rec.Transcript) == 0 {
		rec.Transcript = nil
	}
	return reflect.ValueOf(quickRecord{rec})
}

// binaryRoundTrip pushes records through the v2 codec: encode as a
// batch frame the way AppendTagged does, read it back through the walker.
func binaryRoundTrip(t *testing.T, tag uint64, recs []*honeypot.SessionRecord) Batch {
	t.Helper()
	b := getFrameBuilder()
	defer putFrameBuilder(b)
	b.Byte(kindBatch)
	encodeBatchV2(b, tag, recs)
	frame := finishFrame(b)
	w := walker{meta: true} // past the meta frame, where batches live
	f, n, st, err := w.next(frame)
	if err != nil || st != stopNone || n != len(frame) || f.kind != kindBatch {
		t.Fatalf("encoded frame does not read back (kind=%d n=%d len=%d stop=%d err=%v)", f.kind, n, len(frame), st, err)
	}
	return f.batch
}

// jsonRoundTrip is the v1 semantics oracle: what a record looks like
// after passing through encoding/json.
func jsonRoundTrip(t *testing.T, rec *honeypot.SessionRecord) *honeypot.SessionRecord {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	out := &honeypot.SessionRecord{}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameRecord compares two records with times compared by instant and
// zone offset (JSON's Parse may pick environment-dependent but
// offset-equal locations, so pointer-level location equality is not
// part of the contract).
func sameRecord(a, b *honeypot.SessionRecord) error {
	sameTime := func(x, y time.Time) bool {
		_, xo := x.Zone()
		_, yo := y.Zone()
		return x.Equal(y) && xo == yo
	}
	if !sameTime(a.Start, b.Start) || !sameTime(a.End, b.End) {
		return fmt.Errorf("times differ: %v/%v vs %v/%v", a.Start, a.End, b.Start, b.End)
	}
	ax, bx := *a, *b
	ax.Start, ax.End, bx.Start, bx.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	if !reflect.DeepEqual(ax, bx) {
		return fmt.Errorf("records differ:\n  %+v\nvs\n  %+v", ax, bx)
	}
	return nil
}

// TestCodecMatchesJSONSemantics is the round-trip property test: for
// arbitrary records, (1) a v2 round trip is observationally identical
// to a v1 (JSON) round trip field by field, and (2) re-marshaling the
// v2 round trip to JSON reproduces the original's JSON byte for byte —
// so switching codecs can never change what recovers.
func TestCodecMatchesJSONSemantics(t *testing.T) {
	prop := func(q quickRecord, tag uint64) bool {
		got := binaryRoundTrip(t, tag, []*honeypot.SessionRecord{q.rec})
		if got.Tag != tag || len(got.Records) != 1 {
			t.Logf("tag/len mismatch: %d/%d", got.Tag, len(got.Records))
			return false
		}
		viaJSON := jsonRoundTrip(t, q.rec)
		if err := sameRecord(got.Records[0], viaJSON); err != nil {
			t.Logf("binary vs JSON round trip: %v", err)
			return false
		}
		origJSON, err := json.Marshal(q.rec)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got.Records[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(origJSON, gotJSON) {
			t.Logf("JSON drift:\n  %s\nvs\n  %s", origJSON, gotJSON)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecEmptySlicesDecodeNil pins the omitempty equivalence: empty
// (but non-nil) slices come back nil from the codec, exactly as they
// would from a JSON round trip.
func TestCodecEmptySlicesDecodeNil(t *testing.T) {
	rec := &honeypot.SessionRecord{
		ID:         7,
		Start:      testEpoch,
		End:        testEpoch,
		Logins:     []honeypot.LoginAttempt{},
		Commands:   []honeypot.CommandRecord{},
		URIs:       []string{},
		Files:      []honeypot.FileRecord{},
		Transcript: []byte{},
	}
	got := binaryRoundTrip(t, 0, []*honeypot.SessionRecord{rec}).Records[0]
	if got.Logins != nil || got.Commands != nil || got.URIs != nil || got.Files != nil || got.Transcript != nil {
		t.Fatalf("empty slices survived as non-nil: %+v", got)
	}
}

// TestLargeBatchRoundTrip is the regression test for the wire string
// cap: a batch whose payload — and a single field within it — exceeds
// wire.MaxStringLen must encode and decode cleanly, because the cap is
// per-Reader and the WAL codec lifts it to the payload size.
func TestLargeBatchRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5}, wire.MaxStringLen+4096)
	recs := []*honeypot.SessionRecord{{
		ID: 1, ClientIP: "10.0.0.1", Start: testEpoch, End: testEpoch,
		Transcript: big,
	}}
	for i := 0; i < 64; i++ {
		recs = append(recs, mkRecords(uint64(100+i), 1)...)
	}
	got := binaryRoundTrip(t, 42, recs)
	if len(got.Records) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got.Records), len(recs))
	}
	if !bytes.Equal(got.Records[0].Transcript, big) {
		t.Fatal("oversized transcript did not round-trip")
	}

	// And end to end through a log: the frame is well past 1 MiB.
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Epoch: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTagged(42, recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records() != len(recs) {
		t.Fatalf("recovered %d records, want %d", rec.Records(), len(recs))
	}
	if !bytes.Equal(rec.Batches[0].Records[0].Transcript, big) {
		t.Fatal("oversized transcript did not survive the log")
	}
}

// writeTagged writes n tagged batches to a fresh or existing log and
// returns what was appended.
func writeTagged(t *testing.T, dir string, firstTag uint64, n int, segBytes int64) []Batch {
	t.Helper()
	l, _, err := Open(dir, Options{Epoch: testEpoch, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	var out []Batch
	for i := 0; i < n; i++ {
		tag := firstTag + uint64(i)
		recs := mkRecords(tag*10+1, 2)
		if err := l.AppendTagged(tag, recs); err != nil {
			t.Fatal(err)
		}
		out = append(out, Batch{Tag: tag, Records: recs})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// iterate drains an Iterator over a quiescent directory and returns what
// it read before it caught up or failed.
func iterate(t *testing.T, dir string) ([]Batch, error) {
	t.Helper()
	it, err := NewIterator(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []Batch
	for {
		b, ok, err := it.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, b)
	}
}

// TestCrossFormatRead pins what readers do with the two formats this
// package has had: a v2 directory recovers identically through Open,
// Verify and the Iterator, and a segment that declares the retired JSON
// format — hand-built here, nothing has written one since v2 landed —
// is refused by all three, alone or behind v2 segments, as corruption
// whose error names the format and fsck.
func TestCrossFormatRead(t *testing.T) {
	const (
		segBytes = 1024 // small segments: every fixture spans several
		v1       = "honeyfarm-wal-v1"
	)
	// v1Segment writes segment seq the way the JSON codec did: a meta
	// frame naming the format, then one batch frame with a JSON body.
	v1Segment := func(t *testing.T, dir string, seq uint64) {
		t.Helper()
		body, err := json.Marshal(struct {
			Tag     uint64                    `json:"tag"`
			Records []*honeypot.SessionRecord `json:"records"`
		}{7, mkRecords(1, 2)})
		if err != nil {
			t.Fatal(err)
		}
		seg := EncodeRawFrame(nil, kindMeta, metaPayload(t, v1, seq)[1:])
		seg = EncodeRawFrame(seg, kindBatch, body)
		if err := os.WriteFile(filepath.Join(dir, segmentName(seq)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(t *testing.T, reader string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), v1) || !strings.Contains(err.Error(), "fsck") {
			t.Errorf("%s: err = %v, want a refusal naming %s and fsck", reader, err, v1)
		}
	}
	t.Run("v1", func(t *testing.T) {
		dir := t.TempDir()
		v1Segment(t, dir, 1)
		_, _, err := Open(dir, Options{})
		refused(t, "Open", err)
		_, err = Verify(dir, time.Time{})
		refused(t, "Verify", err)
		_, err = iterate(t, dir)
		refused(t, "Iterator", err)
	})

	t.Run("v2", func(t *testing.T) {
		dir := t.TempDir()
		want := writeTagged(t, dir, 0, 20, segBytes)
		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Segments) < 2 {
			t.Fatalf("fixture has %d segment(s), want several", len(rec.Segments))
		}
		sameBatches(t, rec.Batches, want)
		vrec, err := Verify(dir, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		sameBatches(t, vrec.Batches, want)
		got, err := iterate(t, dir)
		if err != nil {
			t.Fatal(err)
		}
		sameBatches(t, got, want)
	})

	// A directory that mixes formats is refused, not half-read: Open and
	// Verify return nothing, and the Iterator stops with the error at the
	// segment boundary, after the v2 batches before it.
	t.Run("mixed-upgrade", func(t *testing.T) {
		dir := t.TempDir()
		want := writeTagged(t, dir, 0, 10, segBytes)
		segs, err := listSegments(iofault.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		v1Segment(t, dir, segs[len(segs)-1].Seq+1)
		_, _, err = Open(dir, Options{})
		refused(t, "Open", err)
		_, err = Verify(dir, time.Time{})
		refused(t, "Verify", err)
		got, err := iterate(t, dir)
		refused(t, "Iterator", err)
		sameBatches(t, got, want)
	})
}

// TestUnknownFormatRefused: a meta frame declaring a format this package
// never had is corruption, not a tear.
func TestUnknownFormatRefused(t *testing.T) {
	w := walker{name: segmentName(1), seq: 1}
	seg := EncodeRawFrame(nil, kindMeta, metaPayload(t, "honeyfarm-wal-v9", 1)[1:])
	if _, _, st, err := w.next(seg); err == nil || st != stopCorrupt {
		t.Fatalf("walker read an unknown recorded format: stop=%d err=%v", st, err)
	}
}

// metaPayload builds a meta-frame payload with an arbitrary format
// string.
func metaPayload(t *testing.T, format string, seq uint64) []byte {
	t.Helper()
	body, err := json.Marshal(metaBody{Format: format, Segment: seq, Epoch: testEpoch})
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{kindMeta}, body...)
}

// TestEncodeBatchFrameRoundTrip: EncodeBatchFrame produces self-contained
// frames that the walker reads back to back from one buffer, with the
// frame CRC catching any flipped byte.
func TestEncodeBatchFrameRoundTrip(t *testing.T) {
	batches := []Batch{
		{Tag: 7, Records: mkRecords(100, 2)},
		{Tag: 8, Records: nil},
		{Tag: 9, Records: mkRecords(300, 1)},
	}
	var buf []byte
	for _, b := range batches {
		buf = EncodeBatchFrame(buf, b.Tag, b.Records)
	}
	w := walker{meta: true}
	for i, want := range batches {
		f, n, st, err := w.next(buf)
		if err != nil || st != stopNone || f.kind != kindBatch {
			t.Fatalf("frame %d: kind=%d stop=%d err=%v", i, f.kind, st, err)
		}
		got := f.batch
		if got.Tag != want.Tag || len(got.Records) != len(want.Records) {
			t.Fatalf("frame %d: tag=%d records=%d, want tag=%d records=%d",
				i, got.Tag, len(got.Records), want.Tag, len(want.Records))
		}
		for j := range want.Records {
			if err := sameRecord(jsonRoundTrip(t, want.Records[j]), got.Records[j]); err != nil {
				t.Fatalf("frame %d record %d: %v", i, j, err)
			}
		}
		buf = buf[n:]
	}
	if _, _, st, _ := w.next(buf); st != stopEnd {
		t.Fatalf("%d trailing bytes after last frame (stop=%d)", len(buf), st)
	}

	// A flipped byte is caught by the frame CRC.
	frame := EncodeBatchFrame(nil, 1, mkRecords(400, 1))
	frame[len(frame)-1] ^= 0xff
	if _, _, st, _ := w.next(frame); st != stopTorn {
		t.Fatalf("frame with a flipped byte: stop=%d, want torn", st)
	}
}
