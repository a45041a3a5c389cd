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

// decodeBatchV2 decodes a v2 batch-frame body. intact is false for a
// body that does not decode cleanly to its exact end.
func decodeBatchV2(body []byte) (Batch, bool) {
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
		recs = make([]*honeypot.SessionRecord, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		rec, ok := decodeRecord(r)
		if !ok {
			return Batch{}, false
		}
		recs = append(recs, rec)
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

// decodeRecord reads one session record. Zero-length slices decode to
// nil, matching what a JSON round trip under omitempty produces.
func decodeRecord(r *wire.Reader) (*honeypot.SessionRecord, bool) {
	rec := &honeypot.SessionRecord{}
	rec.ID = r.Uint64()
	rec.HoneypotID = int(int64(r.Uint64()))
	rec.Protocol = honeypot.Protocol(r.Byte())
	rec.ClientIP = r.Text()
	rec.ClientPort = int(int64(r.Uint64()))
	rec.Start = decodeTime(r)
	rec.End = decodeTime(r)
	rec.ClientVersion = r.Text()
	if n := r.Uint32(); r.Err() == nil && n > 0 {
		if uint64(n)*9 > uint64(r.Remaining()) { // 2 empty strings + bool
			return nil, false
		}
		rec.Logins = make([]honeypot.LoginAttempt, n)
		for i := range rec.Logins {
			rec.Logins[i] = honeypot.LoginAttempt{User: r.Text(), Password: r.Text(), Success: r.Bool()}
		}
	}
	if n := r.Uint32(); r.Err() == nil && n > 0 {
		if uint64(n)*5 > uint64(r.Remaining()) {
			return nil, false
		}
		rec.Commands = make([]honeypot.CommandRecord, n)
		for i := range rec.Commands {
			rec.Commands[i] = honeypot.CommandRecord{Input: r.Text(), Known: r.Bool()}
		}
	}
	if n := r.Uint32(); r.Err() == nil && n > 0 {
		if uint64(n)*4 > uint64(r.Remaining()) {
			return nil, false
		}
		rec.URIs = make([]string, n)
		for i := range rec.URIs {
			rec.URIs[i] = r.Text()
		}
	}
	if n := r.Uint32(); r.Err() == nil && n > 0 {
		if uint64(n)*20 > uint64(r.Remaining()) {
			return nil, false
		}
		rec.Files = make([]honeypot.FileRecord, n)
		for i := range rec.Files {
			rec.Files[i] = honeypot.FileRecord{
				Path: r.Text(), Hash: r.Text(), Op: r.Text(),
				Size: int(int64(r.Uint64())),
			}
		}
	}
	rec.Termination = honeypot.Termination(r.Byte())
	if t := r.String(); len(t) > 0 {
		rec.Transcript = append([]byte(nil), t...)
	}
	return rec, r.Err() == nil
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
