// Package shard implements the multi-node honeyfarm: collector shards
// that serve their mergeable partial-aggregate state over a small HTTP
// pull API, and a merge coordinator (coordinator.go) that supervises
// the fleet and folds shard partials into one global snapshot
// byte-identical to a single-node run over the same records.
//
// The wire unit is a partials frame: the WAL frame envelope (length +
// CRC-32C + kind byte) around the bundle of the records in (from, seq]
// of the shard's stream. A full frame (wal.FrameKindPartials, from = 0)
// carries
//
//	uint64 seq   — records folded into the shard so far (a stream prefix)
//	uint64 days  — day buckets the shard covers (engine's maxDay+1)
//	bytes  ...   — the analysis.Partials wire encoding
//
// and a delta frame (wal.FrameKindPartialsDelta) puts uint64 from > 0
// before the same three. The cut is made under the shard engine's
// ingest mutex, so merging a frame into the bundle of the shard's first
// from records yields exactly the bundle of its first seq. Because the
// partials encoding walks every map in sorted key order, a given
// accumulator state has one exact byte string.
package shard

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/query"
	"honeyfarm/internal/wal"
	"honeyfarm/internal/wire"
)

// PartialsPath is the shard pull API's endpoint: a GET returns a
// partials frame as an octet stream. ?since=<seq> names the sequence
// the puller's copy of this shard covers; when that is the cut the
// previous pull made the answer is a delta frame from it, otherwise
// (or with no since) the full frame. &wait=<duration> beside a since
// the shard's sequence has not passed parks the pull until a record
// arrives, or for that long: the puller hears of news in one round
// trip, and an idle shard is asked once per wait.
const PartialsPath = "/shard/v1/partials"

// EncodePartialsFrame cuts the engine's current accumulator state into
// a self-contained full frame.
func EncodePartialsFrame(eng *query.Engine) []byte {
	b := newFrameBuilder()
	seq, days := eng.EncodePartials(b)
	return sealFrame(b, 0, seq, days)
}

// frameHead is the room a frame needs in front of its bundle: the
// envelope and the from, seq and days words.
const frameHead = wal.RawFrameHeaderSize + 3*8

// newFrameBuilder returns a builder with frameHead bytes reserved, for
// the bundle to be encoded behind them: a frame is built in the one
// buffer it is sent from. (Partials.Encode sizes the buffer.)
func newFrameBuilder() *wire.Builder {
	return wire.NewBuilderFrom(make([]byte, frameHead))
}

// sealFrame finishes the frame of the bundle b holds, that of the
// records in (from, seq]: a delta frame, or when from is 0 a full
// frame — which has no from word, so it starts one word into the
// buffer.
func sealFrame(b *wire.Builder, from, seq uint64, days int) []byte {
	frame, kind := b.Bytes(), byte(wal.FrameKindPartialsDelta)
	if from == 0 {
		frame, kind = frame[8:], wal.FrameKindPartials
	}
	// Appending to the envelope alone writes over the reserved words.
	head := wire.NewBuilderFrom(frame[:wal.RawFrameHeaderSize])
	if from != 0 {
		head.Uint64(from)
	}
	head.Uint64(seq).Uint64(uint64(int64(days)))
	wal.SealRawFrame(frame, kind)
	return frame
}

// DecodePartialsFrame validates one full frame (envelope CRC, kind
// byte, exact-length payload) and decodes it back to the bundle plus
// the (seq, days) cut it covers.
func DecodePartialsFrame(frame []byte) (seq uint64, days int, parts *analysis.Partials, err error) {
	from, seq, days, parts, err := decodeFrame(frame)
	if err == nil && from != 0 {
		err = errors.New("shard: delta frame where a full one was expected")
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return seq, days, parts, nil
}

// decodeFrame validates a frame of either kind — the one decoder that
// takes fleet bytes off the network — and decodes the bundle of the
// records in (from, seq] it carries; from is 0 for a full frame.
func decodeFrame(frame []byte) (from, seq uint64, days int, parts *analysis.Partials, err error) {
	kind, payload, _, err := wal.DecodeRawFrameKind(frame)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	r := wire.NewReader(payload)
	// Partials payloads scale with the client table, far past the SSH
	// string cap; the frame CRC already vouches for the bytes.
	r.SetMaxStringLen(len(payload))
	switch kind {
	case wal.FrameKindPartials:
	case wal.FrameKindPartialsDelta:
		from = r.Uint64()
	default:
		return 0, 0, 0, nil, fmt.Errorf("shard: frame kind %#x is not a partials frame", kind)
	}
	seq = r.Uint64()
	days = int(int64(r.Uint64()))
	// The cut is checked before the bundle is decoded: a contradictory
	// header costs nothing more.
	if r.Err() == nil {
		if days < 0 {
			return 0, 0, 0, nil, fmt.Errorf("shard: negative day span %d", days)
		}
		if kind == wal.FrameKindPartialsDelta && (from == 0 || from > seq) {
			return 0, 0, 0, nil, fmt.Errorf("shard: delta frame from %d to %d", from, seq)
		}
	}
	parts, err = analysis.DecodePartials(r)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if r.Remaining() != 0 {
		return 0, 0, 0, nil, fmt.Errorf("shard: %d trailing bytes after partials payload", r.Remaining())
	}
	return from, seq, days, parts, nil
}

// NewHandler returns the shard-side pull API over eng. It is mounted
// alongside the regular query API on a collector shard, so one listener
// serves both human-facing JSON and coordinator-facing frames.
func NewHandler(eng *query.Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PartialsPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		// An absent or unreadable since is a puller that holds nothing.
		q := r.URL.Query()
		since, err := strconv.ParseUint(q.Get("since"), 10, 64)
		// The cut is made after the wake and never for a request whose
		// context has ended — the client went away, or the server is
		// draining (cmd/shard cancels its base context): the delta cut for
		// it would be lost with it.
		if wait, werr := time.ParseDuration(q.Get("wait")); err == nil && werr == nil && wait > 0 {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			select {
			case <-eng.News(since):
			case <-timer.C:
			case <-r.Context().Done():
				http.Error(w, "pull abandoned", http.StatusServiceUnavailable)
				return
			}
		}
		b := newFrameBuilder()
		from, seq, days := eng.CutPartials(b, since, err == nil)
		frame := sealFrame(b, from, seq, days)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		if _, err := w.Write(frame); err != nil {
			return // client went away mid-write; its next since will not match the cut
		}
	})
	return mux
}
