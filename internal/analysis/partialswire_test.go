package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/wire"
)

const quickNumPots = 13

// wireReg is the shared registry for country-table properties; built
// once, it is read-only thereafter.
var (
	wireRegOnce sync.Once
	wireReg     *geo.Registry
	wireIPs     []string
)

func quickRegistry() (*geo.Registry, []string) {
	wireRegOnce.Do(func() {
		wireReg = geo.NewRegistry(geo.Config{Seed: 7})
		for _, as := range wireReg.ASes()[:64] {
			if loc, ok := wireReg.Lookup(as.Base); ok {
				wireIPs = append(wireIPs, loc.IP.String())
			}
		}
	})
	return wireReg, wireIPs
}

// dayRec is one (record, day) fold input.
type dayRec struct {
	rec *honeypot.SessionRecord
	day int
}

// quickFold wraps a random fold input so testing/quick can generate it.
// The draws deliberately collide: a small IP pool (some resolvable in
// the registry), a small hash pool, and a small day range, so merges
// actually exercise set-union paths instead of disjoint inserts. One
// draw in eight is a pot or a day far outside the tables — the IDs and
// timestamps an imported log or a hostile peer can carry.
type quickFold struct{ recs []dayRec }

func (quickFold) Generate(r *rand.Rand, size int) reflect.Value {
	_, ips := quickRegistry()
	hashes := []string{"aa01", "bb02", "cc03", "dd04"}
	n := r.Intn(size + 1)
	recs := make([]dayRec, 0, n)
	for i := 0; i < n; i++ {
		m := mk{
			day: r.Intn(9) - 1,            // include day -1: sets must carry negatives
			pot: r.Intn(quickNumPots + 2), // some out of table range
			ip:  ips[r.Intn(len(ips))],
		}
		switch r.Intn(16) {
		case 0:
			m.pot = []int{-1, quickNumPots + 1, 1 << 40}[r.Intn(3)]
		case 1:
			m.day = []int{-100_000, 100_000}[r.Intn(2)]
		}
		switch r.Intn(4) {
		case 1:
			m.logins = failLogin()
		case 2:
			m.logins, m.commands = okLogin(), cmd("wget x")
		case 3:
			m.logins = okLogin()
			m.files = []honeypot.FileRecord{{Path: "/tmp/a", Hash: hashes[r.Intn(len(hashes))], Op: "wget", Size: 100}}
			m.uris = []string{"http://evil/a"}
		}
		if r.Intn(3) == 0 {
			m.proto = honeypot.Telnet
		}
		rec := m.rec()
		rec.ClientVersion = "SSH-2.0-x"
		recs = append(recs, dayRec{rec: rec, day: m.day})
	}
	return reflect.ValueOf(quickFold{recs})
}

func foldBundle(recs []dayRec, reg *geo.Registry, countries bool) *Partials {
	p := NewPartials(quickNumPots, reg, countries)
	for _, dr := range recs {
		p.Add(dr.rec, dr.day)
	}
	return p
}

// potsMatchReference holds a bundle's pot table — counters its client
// and hash tables keep — to a PotAccum folded over the same records,
// which shares no code with them.
func potsMatchReference(t *testing.T, p *Partials, recs []dayRec) bool {
	t.Helper()
	ref := NewPotAccum(quickNumPots)
	for _, dr := range recs {
		ref.Add(dr.rec)
	}
	if got, want := p.FinalizePots(), ref.Finalize(); !reflect.DeepEqual(got, want) {
		t.Logf("pot table after %d records:\n got %+v\nwant %+v", len(recs), got, want)
		return false
	}
	return true
}

// finalizeAll materializes every table of a bundle, JSON-encoded so
// equality means byte-identity of the served artifact.
func finalizeAll(t *testing.T, p *Partials) []byte {
	t.Helper()
	out := struct {
		Summary   CategoryShares
		Pots      []PerHoneypot
		Clients   []ClientStat
		Countries []CountryCount
		Hashes    []HashStat
	}{
		Summary: p.Cats.Finalize(),
		Pots:    p.FinalizePots(),
		Clients: p.Clients.Finalize(),
		Hashes:  p.Hashes.Finalize(nil),
	}
	if p.Countries != nil {
		out.Countries = p.Countries.Finalize()
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func encodeBundle(p *Partials) []byte {
	b := wire.NewBuilder(4 << 10)
	p.Encode(b)
	return b.Bytes()
}

func decodeBundle(t *testing.T, raw []byte) *Partials {
	t.Helper()
	r := wire.NewReader(raw)
	r.SetMaxStringLen(len(raw))
	p, err := DecodePartials(r)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("decode left %d bytes", r.Remaining())
	}
	return p
}

// TestPartialsWireMergeEquivalence is the distributed-merge contract:
// for any two shards' fold inputs, encoding each shard's bundle,
// decoding fresh copies, and merging them equals folding all records
// directly — for every accumulator type, including empty and
// single-entry bundles (quick draws sizes from zero up).
func TestPartialsWireMergeEquivalence(t *testing.T) {
	reg, _ := quickRegistry()
	for _, countries := range []bool{true, false} {
		prop := func(a, b quickFold) bool {
			all := append(append([]dayRec{}, a.recs...), b.recs...)
			direct := foldBundle(all, reg, countries)
			dest := NewPartials(quickNumPots, nil, countries)
			for _, f := range []quickFold{a, b} {
				enc := encodeBundle(foldBundle(f.recs, reg, countries))
				if err := dest.Merge(decodeBundle(t, enc)); err != nil {
					t.Fatalf("merge: %v", err)
				}
			}
			return bytes.Equal(finalizeAll(t, direct), finalizeAll(t, dest)) &&
				potsMatchReference(t, direct, all) && potsMatchReference(t, dest, all)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("countries=%v: %v", countries, err)
		}
	}
}

// TestPartialsWireSingleAndEmpty pins the edge shapes explicitly: an
// empty bundle and a one-record bundle round-trip and merge cleanly.
func TestPartialsWireSingleAndEmpty(t *testing.T) {
	reg, ips := quickRegistry()
	empty := NewPartials(quickNumPots, reg, true)
	one := NewPartials(quickNumPots, reg, true)
	rec := mk{day: 3, pot: 1, ip: ips[0], logins: okLogin(), commands: cmd("ls")}.rec()
	one.Add(rec, 3)
	for name, p := range map[string]*Partials{"empty": empty, "single": one} {
		dec := decodeBundle(t, encodeBundle(p))
		if !bytes.Equal(finalizeAll(t, p), finalizeAll(t, dec)) {
			t.Errorf("%s: decoded bundle finalizes differently", name)
		}
		dest := NewPartials(quickNumPots, nil, true)
		if err := dest.Merge(dec); err != nil {
			t.Errorf("%s: merge: %v", name, err)
		}
	}
}

// TestPartialsEncodeDeterminism: the encoding is a function of the
// accumulated state, not of fold order or map iteration order — two
// bundles folded from permuted streams produce identical bytes.
func TestPartialsEncodeDeterminism(t *testing.T) {
	reg, _ := quickRegistry()
	rng := rand.New(rand.NewSource(5))
	f, _ := quickFold{}.Generate(rng, 80).Interface().(quickFold)
	fwd := foldBundle(f.recs, reg, true)
	shuffled := append([]dayRec{}, f.recs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	rev := foldBundle(shuffled, reg, true)
	a, b := encodeBundle(fwd), encodeBundle(rev)
	if !bytes.Equal(a, b) {
		t.Fatalf("permuted fold changed encoding: %d vs %d bytes", len(a), len(b))
	}
	// Decode → re-encode is also byte-stable.
	if c := encodeBundle(decodeBundle(t, a)); !bytes.Equal(a, c) {
		t.Fatal("decode→re-encode changed bytes")
	}
}

// TestPartialsEncodeSizedOnce: Encode makes room for the whole bundle
// before writing it — the hint covers the bytes (these IPs are IPv4) and
// the buffer it grew is the one that is returned, never a regrown copy.
func TestPartialsEncodeSizedOnce(t *testing.T) {
	reg, _ := quickRegistry()
	f, _ := quickFold{}.Generate(rand.New(rand.NewSource(9)), 400).Interface().(quickFold)
	for _, countries := range []bool{true, false} {
		p := foldBundle(f.recs, reg, countries)
		hint := p.encodedSizeHint()
		b := new(wire.Builder)
		p.Encode(b)
		if b.Len() > hint || hint > b.Len()+b.Len()/5 {
			t.Errorf("countries=%v: hint %d for a %d-byte bundle", countries, hint, b.Len())
		}
		if c := cap(b.Bytes()); c < hint || c > 2*hint {
			t.Errorf("countries=%v: buffer capacity %d after a hint of %d", countries, c, hint)
		}
	}
}

// TestPartialsDecodeRejects: corrupt or mismatched bundles fail loudly
// instead of misdecoding.
func TestPartialsDecodeRejects(t *testing.T) {
	reg, _ := quickRegistry()
	raw := encodeBundle(foldBundle(nil, reg, true))

	bad := append([]byte{}, raw...)
	bad[0] = 99 // version byte
	r := wire.NewReader(bad)
	r.SetMaxStringLen(len(bad))
	if _, err := DecodePartials(r); err == nil {
		t.Error("version 99 decoded")
	}
	for _, n := range []int{1, len(raw) / 2, len(raw) - 1} {
		r := wire.NewReader(raw[:n])
		r.SetMaxStringLen(n)
		if _, err := DecodePartials(r); err == nil {
			t.Errorf("truncation at %d decoded", n)
		}
	}

	// Two things a v1 frame could assert and nobody checked: which
	// category its client table was filtered to, and a hash's first and
	// last day beside the day set they are the ends of. v2 has no field
	// for either, and a frame that still carries one is not a v2 frame.
	decode := func(frame []byte) (*Partials, error) {
		r := wire.NewReader(frame)
		r.SetMaxStringLen(len(frame))
		p, err := DecodePartials(r)
		if err == nil && r.Remaining() != 0 {
			err = fmt.Errorf("%d bytes left over", r.Remaining())
		}
		return p, err
	}
	clients := rawClients([]int{0}, "10.0.0.1")
	hashes := rawHashesOn([]int{2, 5, 70}, "aa")
	p, err := decode(rawFrame(clients, hashes, nil))
	if err != nil {
		t.Fatalf("hand-built v2 frame: %v", err)
	}
	if p.Clients.cat != -1 {
		t.Errorf("decoded client table filters category %d, want all (-1)", p.Clients.cat)
	}
	if hs := p.Hashes.Finalize(nil); len(hs) != 1 || hs[0].FirstDay != 2 || hs[0].LastDay != 70 || hs[0].Days != 3 {
		t.Errorf("hash over days {2,5,70} finalized to %+v", hs)
	}
	if pots := p.FinalizePots(); len(pots) != 1 || pots[0].Clients != 1 || pots[0].Hashes != 1 {
		t.Errorf("pot table %+v, want the one client and one hash the rows name", pots)
	}
	withCat := func(b *wire.Builder) {
		b.Uint32(3) // v1: the client table's category filter
		clients(b)
	}
	if _, err := decode(rawFrame(withCat, hashes, nil)); err == nil {
		t.Error("a client table stating a category filter decoded")
	}
	withFirstLast := func(b *wire.Builder) {
		hashes(b)
		b.Uint64(9) // v1: first day
		b.Uint64(1) // v1: last day, before it
	}
	if _, err := decode(rawFrame(clients, withFirstLast, nil)); err == nil {
		t.Error("a hash row stating its own first/last day decoded")
	}

	// Shape mismatches refuse to merge.
	with := NewPartials(quickNumPots, reg, true)
	without := NewPartials(quickNumPots, nil, false)
	if err := with.Merge(without); err == nil {
		t.Error("country-table mismatch merged")
	}
	small := NewPartials(quickNumPots-1, nil, true)
	if err := with.Merge(small); err == nil {
		t.Error("pot-table size mismatch merged")
	}
}

// TestPartialsRefusesOtherVersion: a bundle in last release's layout
// (checked-in bytes, from an engine that folded 30 records) is refused
// by name — the error says what it got and what it wants — and not
// misread as a v2 bundle.
func TestPartialsRefusesOtherVersion(t *testing.T) {
	raw, err := os.ReadFile("testdata/partials_v1.bundle")
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(raw)
	r.SetMaxStringLen(len(raw))
	p, err := DecodePartials(r)
	if p != nil || err == nil {
		t.Fatalf("v1 bundle decoded: %v, %v", p, err)
	}
	for _, want := range []string{"version 1", fmt.Sprintf("want %d", partialsWireVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}
