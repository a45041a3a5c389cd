package wal

// The batch codec: length-prefixed binary records in SSH wire style
// (internal/wire) inside the frame envelope (length + CRC-32C + kind
// byte) every frame shares.
//
// The codec is defined field by field against honeypot.SessionRecord
// and must match JSON's observable semantics exactly: a record decoded
// from a v2 frame equals the same record round-tripped through
// encoding/json (empty slices come back nil under omitempty, times come
// back in UTC or a fixed numeric zone). TestCodecMatchesJSONSemantics
// pins this with testing/quick.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"time"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/wire"
)

// builderPool recycles frame-encode buffers across appends: one buffer
// holds the whole frame (header + kind + body), so an append copies the
// body at most once and steady-state appends allocate nothing.
var builderPool = sync.Pool{
	New: func() any { return wire.NewBuilder(64 << 10) },
}

// getFrameBuilder returns a pooled builder pre-seeded with a zeroed
// frame header. finishFrame fills the header in; putFrameBuilder
// returns the builder once the frame bytes have been written out.
func getFrameBuilder() *wire.Builder {
	b := builderPool.Get().(*wire.Builder)
	b.Reset()
	var hdr [frameHeaderSize]byte
	b.Raw(hdr[:])
	return b
}

func putFrameBuilder(b *wire.Builder) { builderPool.Put(b) }

// finishFrame computes the payload length and CRC over everything after
// the reserved header and writes them into it, returning the complete
// frame. The payload (kind byte + body) is never materialized
// separately from the frame.
func finishFrame(b *wire.Builder) []byte {
	frame := b.Bytes()
	sealFrame(frame)
	return frame
}

// sealFrame fills in the reserved header of a frame built in place.
func sealFrame(frame []byte) {
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// EncodeBatchFrame encodes one batch as a complete, self-contained v2
// frame (header + kind byte + binary body), appending to dst and
// returning the extended slice. The bytes are exactly what AppendTagged
// writes into a v2 segment, so the function doubles as the codec's
// benchmark entry point and as the building block for shipping batches
// outside a segment file.
func EncodeBatchFrame(dst []byte, tag uint64, recs []*honeypot.SessionRecord) []byte {
	start := len(dst)
	b := wire.NewBuilderFrom(dst)
	var hdr [frameHeaderSize]byte
	b.Raw(hdr[:])
	b.Byte(kindBatch)
	encodeBatchV2(b, tag, recs)
	out := b.Bytes()
	sealFrame(out[start:])
	return out
}

// FrameKindPartials tags a raw frame carrying an encoded partial-
// aggregate bundle (analysis.Partials wire layout) — the shard pull
// protocol's transfer unit. The value is deliberately far from the
// segment-file kinds (meta/batch/gap) so a partials frame accidentally
// written into a segment is rejected as unknown.
const FrameKindPartials = 0x70

// FrameKindPartialsDelta tags a raw frame carrying the bundle of only
// the records a shard folded since the puller's previous cut — the pull
// protocol's steady-state unit, prefixed with the sequence it continues
// from.
const FrameKindPartialsDelta = 0x71

// RawFrameHeaderSize is the envelope in front of a raw frame's body:
// length prefix, CRC-32C and kind byte.
const RawFrameHeaderSize = frameHeaderSize + 1

// SealRawFrame finishes a raw frame built in place — RawFrameHeaderSize
// reserved bytes, then the body — by filling in the envelope. Anything
// shipped between honeyfarm processes rides in this envelope, so every
// transport shares one integrity check; a multi-megabyte body is
// encoded where it will be sent from, never copied into a frame.
func SealRawFrame(frame []byte, kind byte) {
	frame[frameHeaderSize] = kind
	sealFrame(frame)
}

// EncodeRawFrame wraps a body it is handed whole in the same envelope,
// appending to dst and returning the extended slice.
func EncodeRawFrame(dst []byte, kind byte, body []byte) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, RawFrameHeaderSize)...), body...)
	SealRawFrame(dst[start:], kind)
	return dst
}

// DecodeRawFrameKind validates one frame produced by EncodeRawFrame and
// returns its kind byte and body (aliasing data) plus the bytes consumed.
// A truncated buffer or CRC mismatch is an error — raw frames cross
// process boundaries, so a bad frame means the transfer is corrupt, not
// that scanning should stop quietly.
func DecodeRawFrameKind(data []byte) (kind byte, body []byte, n int, err error) {
	kind, body, n, ok := nextFrame(data)
	if !ok {
		return 0, nil, 0, errors.New("wal: truncated or corrupt frame")
	}
	return kind, body, n, nil
}

// encodeBatchV2 appends a v2 batch body to b: tag, record count, then
// each record field for field.
func encodeBatchV2(b *wire.Builder, tag uint64, recs []*honeypot.SessionRecord) {
	b.Uint64(tag)
	b.Uint32(uint32(len(recs)))
	for _, r := range recs {
		encodeRecord(b, r)
	}
}

// decodeBatchV2 decodes a v2 batch-frame body into records carved from
// d's slabs, with every string field drawn from d's intern table.
// intact is false for a body that does not decode cleanly to its exact
// end.
func decodeBatchV2(body []byte, d *decoder) (Batch, bool) {
	r := wire.NewReader(body)
	// Batch payloads legitimately exceed the SSH string cap (a 4096-
	// record generation shard is over a megabyte); the frame CRC already
	// vouches for the bytes, so only the buffer bound applies.
	r.SetMaxStringLen(len(body))
	tag := r.Uint64()
	n := r.Uint32()
	if r.Err() != nil || uint64(n)*minRecordLen > uint64(r.Remaining()) {
		return Batch{}, false
	}
	var recs []*honeypot.SessionRecord
	if n > 0 {
		left := d.left(r)
		slab := d.records.take(int(n), left, minRecordLen)
		recs = d.ptrs.take(int(n), left, minRecordLen)
		for i := range slab {
			if !decodeRecord(r, d, &slab[i]) {
				return Batch{}, false
			}
			recs[i] = &slab[i]
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return Batch{}, false
	}
	return Batch{Tag: tag, Records: recs}, true
}

// minRecordLen is the encoded size of an all-zero record: the fixed
// fields plus one empty length prefix per variable field. Used to bound
// the record-count prefix before allocating.
const minRecordLen = 8 + 8 + 1 + 4 + 8 + timeWireLen + timeWireLen + 4 + 4 + 4 + 4 + 4 + 1 + 4

// timeWireLen is the encoded size of a time.Time: unix seconds,
// nanoseconds, zone offset.
const timeWireLen = 8 + 4 + 4

// encodeRecord appends one session record. Field order is fixed and
// exhaustive: every SessionRecord field is written, in declaration
// order, so the codec and the struct cannot drift silently (the
// testing/quick property test fails on any unencoded field).
func encodeRecord(b *wire.Builder, r *honeypot.SessionRecord) {
	b.Uint64(r.ID)
	b.Uint64(uint64(int64(r.HoneypotID)))
	b.Byte(byte(r.Protocol))
	b.Text(r.ClientIP)
	b.Uint64(uint64(int64(r.ClientPort)))
	encodeTime(b, r.Start)
	encodeTime(b, r.End)
	b.Text(r.ClientVersion)
	b.Uint32(uint32(len(r.Logins)))
	for _, l := range r.Logins {
		b.Text(l.User)
		b.Text(l.Password)
		b.Bool(l.Success)
	}
	b.Uint32(uint32(len(r.Commands)))
	for _, c := range r.Commands {
		b.Text(c.Input)
		b.Bool(c.Known)
	}
	b.Uint32(uint32(len(r.URIs)))
	for _, u := range r.URIs {
		b.Text(u)
	}
	b.Uint32(uint32(len(r.Files)))
	for _, f := range r.Files {
		b.Text(f.Path)
		b.Text(f.Hash)
		b.Text(f.Op)
		b.Uint64(uint64(int64(f.Size)))
	}
	b.Byte(byte(r.Termination))
	b.String(r.Transcript)
}

// decodeRecord reads one session record into rec, which must be zero.
// Zero-length slices decode to nil, matching what a JSON round trip
// under omitempty produces. Each count is checked against the bytes
// left at its element type's minimum encoded size before a slab is cut.
func decodeRecord(r *wire.Reader, d *decoder, rec *honeypot.SessionRecord) bool {
	rec.ID = r.Uint64()
	rec.HoneypotID = int(int64(r.Uint64()))
	rec.Protocol = honeypot.Protocol(r.Byte())
	rec.ClientIP = d.text(r)
	rec.ClientPort = int(int64(r.Uint64()))
	rec.Start = decodeTime(r)
	rec.End = decodeTime(r)
	rec.ClientVersion = d.text(r)
	if n := r.Uint32(); r.Err() == nil && n > 0 {
		if uint64(n)*minLoginLen > uint64(r.Remaining()) {
			return false
		}
		rec.Logins = d.logins.take(int(n), d.left(r), minLoginLen)
		for i := range rec.Logins {
			rec.Logins[i] = honeypot.LoginAttempt{User: d.text(r), Password: d.text(r), Success: r.Bool()}
		}
	}
	enc := r.Rest()
	if n := r.Uint32(); r.Err() == nil && n > 0 {
		if uint64(n)*minCommandLen > uint64(r.Remaining()) {
			return false
		}
		slot, hit := d.commandLists.find(r, enc, n, 1, sameCommand)
		switch {
		case slot == nil:
			return false
		case hit:
			rec.Commands = *slot
		default:
			rec.Commands = d.commands.take(int(n), d.left(r), minCommandLen)
			for i := range rec.Commands {
				rec.Commands[i] = honeypot.CommandRecord{Input: d.text(r), Known: r.Bool()}
			}
			*slot = rec.Commands
		}
	}
	enc = r.Rest()
	if n := r.Uint32(); r.Err() == nil && n > 0 {
		if uint64(n)*minURILen > uint64(r.Remaining()) {
			return false
		}
		slot, hit := d.uriLists.find(r, enc, n, 0, sameURI)
		switch {
		case slot == nil:
			return false
		case hit:
			rec.URIs = *slot
		default:
			rec.URIs = d.uris.take(int(n), d.left(r), minURILen)
			for i := range rec.URIs {
				rec.URIs[i] = d.text(r)
			}
			*slot = rec.URIs
		}
	}
	if n := r.Uint32(); r.Err() == nil && n > 0 {
		if uint64(n)*minFileLen > uint64(r.Remaining()) {
			return false
		}
		rec.Files = d.files.take(int(n), d.left(r), minFileLen)
		for i := range rec.Files {
			rec.Files[i] = honeypot.FileRecord{
				Path: d.text(r), Hash: d.text(r), Op: d.text(r),
				Size: int(int64(r.Uint64())),
			}
		}
	}
	rec.Termination = honeypot.Termination(r.Byte())
	if t := r.String(); len(t) > 0 {
		rec.Transcript = append([]byte(nil), t...)
	}
	return r.Err() == nil
}

// The minimum encoded size of each repeated element: its fields with
// every string empty.
const (
	minLoginLen   = 4 + 4 + 1     // user, password, success
	minCommandLen = 4 + 1         // input, known
	minURILen     = 4             // the URI
	minFileLen    = 4 + 4 + 4 + 8 // path, hash, op, size
)

// maxChunk caps the elements one slab refill holds. 128 records of
// about 240 B stay a small-object allocation under 32 KiB; larger
// chunks go through the large-object path and its clearing.
const maxChunk = 128

// decoder is what a walker keeps between the batches it decodes: the
// intern table, the command and URI list tables, and one slab per
// element type a record holds. Slabs carry over from frame to frame and
// segment to segment, so a log of one-record frames — what the wire
// front writes — costs one allocation per type per chunk, not one per
// record.
type decoder struct {
	interner
	rest int // segment bytes after the frame being decoded

	commandLists listTable[honeypot.CommandRecord]
	uriLists     listTable[string]

	records  slab[honeypot.SessionRecord]
	ptrs     slab[*honeypot.SessionRecord]
	logins   slab[honeypot.LoginAttempt]
	commands slab[honeypot.CommandRecord]
	uris     slab[string]
	files    slab[honeypot.FileRecord]
}

// left is the segment bytes past r's read position: what any slice
// still to be decoded from this segment can be encoded in.
func (d *decoder) left(r *wire.Reader) int { return r.Remaining() + d.rest }

// slab hands out consecutive runs of one backing array. Keeping any one
// of them keeps the whole chunk alive.
type slab[T any] struct {
	free []T
}

// take returns n zeroed elements whose capacity is their length, so an
// append by their owner copies instead of writing over the next run.
// A slab too short for n is replaced by a chunk of max(n, min(maxChunk,
// left/minLen)) elements: left bytes hold no more than left/minLen of
// them, which keeps what a walk allocates in proportion to its input.
func (s *slab[T]) take(n, left, minLen int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(n, min(maxChunk, left/minLen)))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// internSlots sizes the intern table. A direct-mapped table this small
// still catches a log's repeats — a client's IP across its sessions,
// the credential lists and command templates every bot replays — and
// at 16 KiB it stays, with the list tables' 12 KiB, inside the fixed
// slack FuzzWALFrame allows a walk.
const internSlots = 1 << 10

// interner hands out the strings a walker decodes, so a value repeated
// across records is one string however many records hold it. Each slot
// keeps the last string whose hash landed there; a collision just
// replaces it. The table is allocated on first use, and the strings
// are copies: no decoded record aliases the bytes it was read from.
type interner struct {
	slots *[internSlots]string
}

// text reads a length-prefixed string and returns it interned.
func (in *interner) text(r *wire.Reader) string {
	b := r.String()
	if len(b) == 0 {
		return ""
	}
	if in.slots == nil {
		in.slots = new([internSlots]string)
	}
	s := &in.slots[hashBytes(b)%internSlots]
	if *s != string(b) {
		*s = string(b)
	}
	return *s
}

// listSlots sizes each list table: a bot's script is a handful of
// distinct command lists and download URIs, and 256 slots of one slice
// header are 6 KiB a kind.
const listSlots = 1 << 8

// listTable hands a record the list an earlier record decoded from the
// same bytes, so a script replayed session after session is one array
// however many records hold it. Each slot keeps the last list whose
// encoding hashed there; the table holds no copy of that encoding, and
// a candidate is checked against the cached list's own elements. Like
// the interner's, the table is allocated on first use.
type listTable[T any] struct {
	slots *[listSlots][]T
}

// find looks up the list of n elements whose count r has just read
// from the head of enc; each element is a string and then trail bytes,
// and eq says whether one decodes to a cached element. On a hit it skips
// the elements and returns the slot holding their list. On a miss it
// returns the slot the caller stores the list it decodes in. A nil slot
// means the list runs past the bytes.
func (t *listTable[T]) find(r *wire.Reader, enc []byte, n uint32, trail int, eq func(v T, s, trail []byte) bool) (slot *[]T, hit bool) {
	span := listLen(enc, n, trail)
	if span < 0 {
		return nil, false
	}
	if t.slots == nil {
		t.slots = new([listSlots][]T)
	}
	slot = &t.slots[hashBytes(enc[:span])%listSlots]
	if uint32(len(*slot)) != n {
		return slot, false
	}
	enc = enc[4:span]
	for _, v := range *slot {
		end := 4 + int(binary.BigEndian.Uint32(enc))
		if !eq(v, enc[4:end], enc[end:end+trail]) {
			return slot, false
		}
		enc = enc[end+trail:]
	}
	r.Bytes(span - 4)
	return slot, true
}

// listLen is the encoded length of a list of n elements, its count
// included, at the head of b: each element is a length-prefixed string
// and then trail bytes. It is -1 if the list runs past b.
func listLen(b []byte, n uint32, trail int) int {
	off := 4
	for ; n > 0; n-- {
		if len(b)-off < 4 {
			return -1
		}
		l := uint64(binary.BigEndian.Uint32(b[off:])) + uint64(trail)
		if l > uint64(len(b)-off-4) {
			return -1
		}
		off += 4 + int(l)
	}
	return off
}

// sameCommand reports whether a command encoded as its input s and its
// Known byte decodes to c.
func sameCommand(c honeypot.CommandRecord, s, trail []byte) bool {
	return string(s) == c.Input && (trail[0] != 0) == c.Known
}

// sameURI reports whether a URI encoded as s decodes to u.
func sameURI(u string, s, _ []byte) bool { return string(s) == u }

// hashBytes is the walker's one hash, for interned strings and list
// encodings alike: eight bytes a step, short inputs in one or two
// overlapping loads, then a finaliser that spreads every input bit
// over the low bits a table index takes.
func hashBytes(b []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(b)) * m
	for ; len(b) > 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m
	}
	var w uint64
	switch {
	case len(b) == 8:
		w = binary.LittleEndian.Uint64(b)
	case len(b) >= 4:
		w = uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[len(b)-4:]))<<32
	case len(b) > 0:
		w = uint64(b[0]) | uint64(b[len(b)/2])<<8 | uint64(b[len(b)-1])<<16
	}
	h = (h ^ w) * m
	h ^= h >> 32
	h *= m
	return h ^ h>>29
}

// encodeTime appends a time.Time as unix seconds, nanoseconds, and the
// zone offset in seconds. The monotonic reading is dropped, exactly as
// JSON marshaling drops it.
func encodeTime(b *wire.Builder, t time.Time) {
	_, offset := t.Zone()
	b.Uint64(uint64(t.Unix()))
	b.Uint32(uint32(t.Nanosecond()))
	b.Uint32(uint32(int32(offset)))
}

// decodeTime reads a time encoded by encodeTime. A zero offset yields
// UTC and any other offset a fixed numeric zone — the same locations an
// RFC 3339 parse (JSON's format) produces.
func decodeTime(r *wire.Reader) time.Time {
	sec := int64(r.Uint64())
	nsec := int64(int32(r.Uint32()))
	offset := int(int32(r.Uint32()))
	if r.Err() != nil {
		return time.Time{}
	}
	loc := time.UTC
	if offset != 0 {
		loc = time.FixedZone("", offset)
	}
	return time.Unix(sec, nsec).In(loc)
}
