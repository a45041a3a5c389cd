package shard_test

// The pull protocol's frames: what the handler answers to which since,
// and what the decoder — the one place fleet bytes come off the
// network — makes of frames no shard would send.

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"honeyfarm"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
	"honeyfarm/internal/wal"
	"honeyfarm/internal/wire"
)

// pull GETs one frame from a shard handler and decodes it.
func pull(t *testing.T, srv *httptest.Server, since string) (from, seq uint64, frame []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + shard.PartialsPath + since)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frame, err = io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d, %v", since, resp.StatusCode, err)
	}
	from, seq, _, _, err = shard.DecodeFrame(frame)
	if err != nil {
		t.Fatalf("GET %s: %v", since, err)
	}
	return from, seq, frame
}

// TestPullHandlerSince walks the handler's delta/full rule: a since
// that names the previous pull's cut gets the records after it, any
// other — or none, or one that does not parse — the full frame, which
// is byte for byte what EncodePartialsFrame cuts.
func TestPullHandlerSince(t *testing.T) {
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{Seed: 21, TotalSessions: 600, Days: 6, NumPots: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := d.Store.Records()
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: 4, Registry: d.Registry})
	srv := httptest.NewServer(shard.NewHandler(eng))
	defer srv.Close()

	eng.Ingest(recs[:400])
	if from, seq, frame := pull(t, srv, ""); from != 0 || seq != 400 || !bytes.Equal(frame, shard.EncodePartialsFrame(eng)) {
		t.Fatalf("first pull: (%d, %d], want the full frame at 400", from, seq)
	}
	eng.Ingest(recs[400:450])
	from, seq, delta := pull(t, srv, "?since=400")
	if from != 400 || seq != 450 {
		t.Fatalf("since=400 after a cut at 400: (%d, %d], want (400, 450]", from, seq)
	}
	if _, _, _, err := shard.DecodePartialsFrame(delta); err == nil {
		t.Error("DecodePartialsFrame took a delta frame for a full one")
	}
	if from, seq, frame := pull(t, srv, "?since=450"); from != 450 || seq != 450 || len(frame) >= len(delta) {
		t.Errorf("idle shard: (%d, %d] in %d bytes, want an empty delta at 450", from, seq, len(frame))
	}
	eng.Ingest(recs[450:500])
	for _, since := range []string{"?since=400", "?since=9999", "?since=-1", "?since=", ""} {
		from, seq, frame := pull(t, srv, since)
		if from != 0 || seq != 500 || !bytes.Equal(frame, shard.EncodePartialsFrame(eng)) {
			t.Errorf("%q after a cut elsewhere: (%d, %d], want the full frame at 500", since, from, seq)
		}
	}
}

// frameSeeds builds the fuzz seed corpus: the frames a shard sends and
// the damaged or contradictory ones it never would. ok says whether
// the decoder must accept the frame.
func frameSeeds(t testing.TB) map[string]struct {
	frame []byte
	ok    bool
} {
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{Seed: 21, TotalSessions: 80, Days: 6, NumPots: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: 4, Registry: d.Registry}
	eng := query.New(cfg)
	eng.Ingest(d.Store.Records()[:30]) // enough to fill every table; seeds stay small
	full := shard.EncodePartialsFrame(eng)
	body, empty := wire.NewBuilder(1<<10), wire.NewBuilder(1<<10)
	seq, days := eng.EncodePartials(body)
	query.New(cfg).EncodePartials(empty)
	payload := func(from uint64) []byte {
		return wire.NewBuilder(1 << 10).Uint64(from).Uint64(seq).Uint64(uint64(days)).Raw(body.Bytes()).Bytes()
	}
	badCRC := bytes.Clone(full)
	badCRC[len(badCRC)-1] ^= 0x40
	v1, err := os.ReadFile(v1BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	type seed = struct {
		frame []byte
		ok    bool
	}
	return map[string]seed{
		"full":          {full, true},
		"delta":         {shard.EncodeFrame(seq/2, seq, days, body.Bytes()), true},
		"empty_delta":   {shard.EncodeFrame(seq, seq, days, empty.Bytes()), true},
		"truncated":     {full[:len(full)*2/3], false},
		"from_past_seq": {wal.EncodeRawFrame(nil, wal.FrameKindPartialsDelta, payload(seq+1)), false},
		"from_zero":     {wal.EncodeRawFrame(nil, wal.FrameKindPartialsDelta, payload(0)), false},
		"wrong_kind":    {wal.EncodeRawFrame(nil, 0x7f, payload(1)[8:]), false},
		"bad_crc":       {badCRC, false},
		"trailing":      {wal.EncodeRawFrame(nil, wal.FrameKindPartialsDelta, append(payload(1), 0)), false},
		"old_version":   {shard.EncodeFrame(0, seq, days, v1), false},
	}
}

const frameCorpusDir = "testdata/fuzz/FuzzDecodePartialsFrame"

// v1BundlePath is the same 30 records' bundle as a partials wire v1
// engine encoded it: what a shard one release behind still sends.
const v1BundlePath = "../analysis/testdata/partials_v1.bundle"

// TestFrameSeedCorpus keeps the checked-in corpus equal to what
// frameSeeds builds (-update rewrites it) and holds each seed to its
// expected verdict.
func TestFrameSeedCorpus(t *testing.T) {
	seeds := frameSeeds(t)
	for name, s := range seeds {
		from, seq, _, parts, err := shard.DecodeFrame(s.frame)
		if (err == nil) != s.ok {
			t.Errorf("%s: decode error %v, want accepted=%v", name, err, s.ok)
		}
		if err == nil && (parts == nil || from > seq || (name == "full") != (from == 0)) {
			t.Errorf("%s: decoded to (%d, %d], bundle %v", name, from, seq, parts)
		}
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.frame)
		path := filepath.Join(frameCorpusDir, name)
		if *updateGolden {
			if err := os.MkdirAll(frameCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != file {
			t.Errorf("%s: checked-in seed is stale (run go test ./internal/shard -update): %v", name, err)
		}
	}
	if files, _ := os.ReadDir(frameCorpusDir); len(files) != len(seeds) {
		t.Errorf("%d files in %s, %d seeds", len(files), frameCorpusDir, len(seeds))
	}
}

// FuzzDecodePartialsFrame: whatever the bytes, the decoder does not
// panic, allocates in proportion to the input, and either refuses the
// frame or returns a bundle that is safe to use — it re-encodes to a
// frame that decodes to the same bytes again, builds a client head equal
// to the first rows of its full table, merges and materializes.
// Each input is also tried with its envelope re-sealed, so mutations
// get past the CRC to the payload decoders. Plain go test runs the
// checked-in corpus only.
func FuzzDecodePartialsFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		checkFrame(t, frame)
		if len(frame) > 9 {
			checkFrame(t, wal.EncodeRawFrame(nil, frame[8], frame[9:]))
		}
	})
}

func checkFrame(t *testing.T, frame []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	from, seq, days, parts, err := shard.DecodeFrame(frame)
	runtime.ReadMemStats(&after)
	if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(frame)+64<<10); spent > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(frame), spent, limit)
	}
	if err != nil {
		if parts != nil {
			t.Fatalf("refused frame still returned a bundle: %v", err)
		}
		return
	}
	if from > seq || days < 0 {
		t.Fatalf("accepted (%d, %d] over %d days", from, seq, days)
	}
	full := parts.Clients.Finalize()
	if head, want := parts.Clients.Head(query.ClientRows), full[:min(query.ClientRows, len(full))]; !slices.Equal(head, want) {
		t.Fatalf("decoded bundle's client head %+v, want its table's first rows %+v", head, want)
	}
	b := wire.NewBuilder(len(frame))
	parts.Encode(b)
	_, _, _, copied, err := shard.DecodeFrame(shard.EncodeFrame(from, seq, days, b.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded bundle refused: %v", err)
	}
	b2 := wire.NewBuilder(len(frame))
	copied.Encode(b2)
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Fatal("bundle does not re-encode to a fixed point")
	}
	if err := parts.Merge(copied); err != nil {
		t.Fatal(err)
	}
	query.MaterializeSnapshot(parts, seq, days, nil, nil)
}
