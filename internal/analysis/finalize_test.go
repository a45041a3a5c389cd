package analysis

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"honeyfarm/internal/wire"
)

// foldStep is one step of a random accumulator history.
type foldStep struct {
	kind int // stepAdd … stepFinalize
	recs []dayRec
	// sealed: the merged-in bundle was itself finalized and its client
	// head taken first.
	sealed bool
	// rows is the client head size a stepFinalize asks for.
	rows int
}

const (
	stepAdd = iota
	stepMergeFolded
	stepMergeDecoded
	stepFinalize
	numStepKinds
)

// headRows are the client head sizes a history asks for: small ones,
// so that its few dozen IPs overflow the head, and the size a snapshot
// serves (query.ClientRows).
var headRows = []int{1, 3, 8, 100}

// quickHistory is a random interleaving of Add, Merge and Finalize.
// Finalize steps land anywhere, including first (empty accumulators)
// and back to back (nothing touched since the last call); record draws
// may be empty or a single record. A history keeps to one head size but
// for one Finalize step in six, which asks for another.
type quickHistory struct{ steps []foldStep }

func (quickHistory) Generate(r *rand.Rand, size int) reflect.Value {
	steps := make([]foldStep, r.Intn(12)+1)
	rows := headRows[r.Intn(len(headRows))]
	for i := range steps {
		steps[i].kind = r.Intn(numStepKinds)
		steps[i].sealed = r.Intn(2) == 0
		steps[i].rows = rows
		if r.Intn(6) == 0 {
			steps[i].rows = headRows[r.Intn(len(headRows))]
		}
		if steps[i].kind != stepFinalize {
			f, _ := quickFold{}.Generate(r, size/4).Interface().(quickFold)
			steps[i].recs = f.recs
		}
	}
	return reflect.ValueOf(quickHistory{steps})
}

// TestIncrementalFinalizeEquivalence is the contract of the state kept
// between seals: whatever mix of Add, Merge (of directly folded and of
// wire-decoded bundles, finalized before the merge or not) and Finalize
// an accumulator has been through, every Finalize equals a from-scratch
// fold of the records so far, and the client head taken just before it
// is that table's first rows. The histories must have seen an IP arrive
// below a full head and Merge adopt keys into an accumulator keeping
// one.
func TestIncrementalFinalizeEquivalence(t *testing.T) {
	reg, _ := quickRegistry()
	var lateSmall, adopted int
	prop := func(h quickHistory) bool {
		live := NewPartials(quickNumPots, reg, true)
		var prefix []dayRec
		var lastHead []string
		lastRows := 0
		check := func(rows int) bool {
			head := live.Clients.Head(rows)
			want := finalizeAll(t, foldBundle(prefix, reg, true))
			if got := finalizeAll(t, live); !bytes.Equal(got, want) {
				t.Logf("after %d records:\n got %s\nwant %s", len(prefix), got, want)
				return false
			}
			full := live.Clients.Finalize()
			if !slices.Equal(head, full[:min(rows, len(full))]) || len(full) != live.Clients.Len() {
				t.Logf("after %d records, head of %d:\n got %+v\nwant %+v of %d (Len %d)",
					len(prefix), rows, head, full[:min(rows, len(full))], len(full), live.Clients.Len())
				return false
			}
			// A full head changes only by taking in a smaller newcomer.
			if lastRows == rows && len(lastHead) == rows && !slices.Equal(lastHead, live.Clients.head) {
				lateSmall++
			}
			lastHead, lastRows = slices.Clone(live.Clients.head), rows
			return potsMatchReference(t, live, prefix)
		}
		for _, s := range h.steps {
			prefix = append(prefix, s.recs...)
			switch s.kind {
			case stepAdd:
				for _, dr := range s.recs {
					live.Add(dr.rec, dr.day)
				}
			case stepMergeFolded, stepMergeDecoded:
				src := foldBundle(s.recs, reg, true)
				if s.kind == stepMergeDecoded {
					src = decodeBundle(t, encodeBundle(src))
				}
				if s.sealed {
					finalizeAll(t, src)
					src.Clients.Head(s.rows)
				}
				if live.Clients.rows > 0 {
					for ip := range src.Clients.m {
						if live.Clients.m[ip] == nil {
							adopted++
						}
					}
				}
				if err := live.Merge(src); err != nil {
					t.Fatalf("merge: %v", err)
				}
			case stepFinalize:
				if !check(s.rows) {
					return false
				}
			}
		}
		// Twice: the second head call has no newcomer to take in.
		last := h.steps[len(h.steps)-1].rows
		return check(last) && check(last)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if lateSmall == 0 || adopted == 0 {
		t.Errorf("histories never exercised the head: %d late smaller IPs, %d keys adopted into a kept head", lateSmall, adopted)
	}
}

// rawFrame hand-builds a Partials frame of one pot around the given
// table bodies, so a test can write what Encode never would.
func rawFrame(clients, hashes, countries func(*wire.Builder)) []byte {
	b := wire.NewBuilder(256)
	b.Byte(partialsWireVersion)
	b.Bool(countries != nil)
	encodeCats(b, new(CategoryAccum))
	b.Uint32(1) // one pot
	b.Uint64(0)
	clients(b)
	if countries != nil {
		countries(b)
	}
	hashes(b)
	return b.Bytes()
}

func rawStrings(b *wire.Builder, keys ...string) {
	b.Uint32(uint32(len(keys)))
	for _, k := range keys {
		b.Text(k)
	}
}

func rawInts(b *wire.Builder, keys ...int) {
	b.Uint32(uint32(len(keys)))
	for _, k := range keys {
		b.Uint64(uint64(int64(k)))
	}
}

func rawClients(pots []int, ips ...string) func(*wire.Builder) {
	return func(b *wire.Builder) {
		b.Uint32(uint32(len(ips)))
		for _, ip := range ips {
			b.Text(ip)
			b.Uint64(1)
			rawInts(b, pots...)
			rawInts(b, 0)
			b.Byte(1)
		}
	}
}

func rawHashes(hashes ...string) func(*wire.Builder) {
	return rawHashesOn([]int{0}, hashes...)
}

func rawHashesOn(days []int, hashes ...string) func(*wire.Builder) {
	return func(b *wire.Builder) {
		b.Uint32(uint32(len(hashes)))
		for _, h := range hashes {
			b.Text(h)
			b.Uint64(1)
			rawStrings(b, "10.0.0.1")
			rawInts(b, days...)
			rawInts(b, 0)
		}
	}
}

func rawCountries(ips []string, codes ...string) func(*wire.Builder) {
	return func(b *wire.Builder) {
		b.Uint32(uint32(len(codes)))
		for _, c := range codes {
			b.Text(c)
			rawStrings(b, ips...)
		}
	}
}

// TestPartialsDecodeRejectsUnsortedKeys: Encode writes every table and
// set in strictly ascending key order, so a frame that repeats a key or
// steps backwards is not one a shard produced. Decoding used to let the
// last duplicate win; now it is a decode error.
func TestPartialsDecodeRejectsUnsortedKeys(t *testing.T) {
	oneIP := []string{"10.0.0.1"}
	cases := []struct {
		name  string
		frame []byte
		ok    bool
	}{
		{"ascending", rawFrame(rawClients([]int{0, 3}, "10.0.0.1", "10.0.0.2"), rawHashes("aa", "bb"),
			rawCountries([]string{"10.0.0.1", "10.0.0.2"}, "CN", "US")), true},
		{"client repeated", rawFrame(rawClients([]int{0}, "10.0.0.1", "10.0.0.1"), rawHashes(), nil), false},
		{"client descending", rawFrame(rawClients([]int{0}, "10.0.0.2", "10.0.0.1"), rawHashes(), nil), false},
		{"hash repeated", rawFrame(rawClients(nil), rawHashes("aa", "aa"), nil), false},
		{"hash descending", rawFrame(rawClients(nil), rawHashes("bb", "aa"), nil), false},
		{"country repeated", rawFrame(rawClients(nil), rawHashes(), rawCountries(oneIP, "US", "US")), false},
		{"string set repeated", rawFrame(rawClients(nil), rawHashes(),
			rawCountries([]string{"10.0.0.1", "10.0.0.1"}, "US")), false},
		{"int set repeated", rawFrame(rawClients([]int{3, 3}, "10.0.0.1"), rawHashes(), nil), false},
		{"int set descending", rawFrame(rawClients([]int{3, -1}, "10.0.0.1"), rawHashes(), nil), false},
		{"int set descending across chunks", rawFrame(rawClients([]int{64, 3}, "10.0.0.1"), rawHashes(), nil), false},
	}
	for _, c := range cases {
		r := wire.NewReader(c.frame)
		r.SetMaxStringLen(len(c.frame))
		p, err := DecodePartials(r)
		if c.ok {
			if err != nil || r.Remaining() != 0 {
				t.Fatalf("%s: err %v, %d bytes left — the hand-built frame is wrong", c.name, err, r.Remaining())
			}
			if !bytes.Equal(c.frame, encodeBundle(p)) {
				t.Errorf("%s: re-encoding the decoded frame changed it", c.name)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
}
