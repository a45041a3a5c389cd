package wire

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

func TestBuilderReaderRoundTrip(t *testing.T) {
	b := NewBuilder(64)
	b.Byte(0x15).Bool(true).Bool(false).Uint32(0xdeadbeef).Uint64(1 << 40)
	b.String([]byte("hello")).Text("world")
	b.NameList([]string{"curve25519-sha256", "ext-info-s"})

	r := NewReader(b.Bytes())
	if got := r.Byte(); got != 0x15 {
		t.Errorf("Byte = %#x, want 0x15", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 1<<40 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := r.String(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("String = %q", got)
	}
	if got := r.Text(); got != "world" {
		t.Errorf("Text = %q", got)
	}
	names := r.NameList()
	if len(names) != 2 || names[0] != "curve25519-sha256" || names[1] != "ext-info-s" {
		t.Errorf("NameList = %v", names)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestMPIntEncoding(t *testing.T) {
	cases := []struct {
		in   *big.Int
		want []byte
	}{
		// Examples from RFC 4251 §5.
		{big.NewInt(0), []byte{0, 0, 0, 0}},
		{mustHex(t, "9a378f9b2e332a7"), []byte{0, 0, 0, 8, 0x09, 0xa3, 0x78, 0xf9, 0xb2, 0xe3, 0x32, 0xa7}},
		{big.NewInt(0x80), []byte{0, 0, 0, 2, 0x00, 0x80}},
	}
	for _, c := range cases {
		b := new(Builder)
		b.MPInt(c.in)
		if !bytes.Equal(b.Bytes(), c.want) {
			t.Errorf("MPInt(%v) = %x, want %x", c.in, b.Bytes(), c.want)
		}
		r := NewReader(b.Bytes())
		got := r.MPInt()
		if r.Err() != nil || got.Cmp(c.in) != 0 {
			t.Errorf("MPInt round-trip of %v = %v (err %v)", c.in, got, r.Err())
		}
	}
}

func mustHex(t *testing.T, s string) *big.Int {
	t.Helper()
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		t.Fatalf("bad hex %q", s)
	}
	return v
}

func TestMPIntBytesStripsLeadingZeros(t *testing.T) {
	b := new(Builder)
	b.MPIntBytes([]byte{0, 0, 0x7f, 0x01})
	want := []byte{0, 0, 0, 2, 0x7f, 0x01}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("MPIntBytes = %x, want %x", b.Bytes(), want)
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 'a'})
	if got := r.String(); got != nil {
		t.Errorf("String on short buffer = %q, want nil", got)
	}
	if r.Err() == nil {
		t.Fatal("expected error on short buffer")
	}
	// Subsequent reads stay failed and return zero values.
	if r.Uint32() != 0 || r.Byte() != 0 {
		t.Error("reads after error should return zero values")
	}
}

func TestReaderStringTooLong(t *testing.T) {
	b := new(Builder)
	b.Uint32(MaxStringLen + 1)
	r := NewReader(b.Bytes())
	r.String()
	if r.Err() == nil {
		t.Fatal("expected length-limit error")
	}
}

// TestSetMaxStringLen: the string cap is per-Reader. The SSH default
// stays MaxStringLen, but a caller decoding a format with larger fields
// (the WAL's v2 batch codec) can lift it — and the lifted cap still
// never admits a read past the buffer.
func TestSetMaxStringLen(t *testing.T) {
	big := make([]byte, MaxStringLen+3)
	for i := range big {
		big[i] = byte(i)
	}
	b := new(Builder)
	b.String(big)

	// Default cap refuses the field even though the bytes are all there.
	r := NewReader(b.Bytes())
	if r.String() != nil || r.Err() == nil {
		t.Fatal("default cap admitted a string over MaxStringLen")
	}

	// A lifted per-Reader cap reads it back intact.
	r = NewReader(b.Bytes())
	r.SetMaxStringLen(len(b.Bytes()))
	got := r.String()
	if r.Err() != nil {
		t.Fatalf("lifted cap failed: %v", r.Err())
	}
	if len(got) != len(big) || got[0] != 0 || got[len(got)-1] != big[len(big)-1] {
		t.Fatalf("read %d bytes, want %d", len(got), len(big))
	}

	// Lifting the cap cannot outrun the buffer: a declared length past
	// the end is still a short-buffer error, never a large allocation.
	tr := NewReader(b.Bytes()[:10])
	tr.SetMaxStringLen(1 << 30)
	if tr.String() != nil || tr.Err() == nil {
		t.Fatal("lifted cap admitted a truncated string")
	}

	// A lowered cap tightens the default.
	r = NewReader(b.Bytes())
	r.SetMaxStringLen(16)
	if r.String() != nil || r.Err() == nil {
		t.Fatal("lowered cap admitted an oversized string")
	}
}

func TestReaderBytesNegative(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if got := r.Bytes(-1); got != nil {
		t.Errorf("Bytes(-1) = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Fatal("expected error for negative length")
	}
}

func TestEmptyNameList(t *testing.T) {
	b := new(Builder)
	b.NameList(nil)
	r := NewReader(b.Bytes())
	if got := r.NameList(); got != nil {
		t.Errorf("empty NameList = %v, want nil", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// Property: any sequence of (string, uint32, uint64, bool) fields round-trips.
func TestQuickFieldRoundTrip(t *testing.T) {
	f := func(s []byte, u32 uint32, u64 uint64, flag bool, names []string) bool {
		// name-list members must not contain commas or be empty.
		clean := names[:0]
		for _, n := range names {
			ok := n != ""
			for i := 0; i < len(n); i++ {
				if n[i] == ',' || n[i] == 0 {
					ok = false
					break
				}
			}
			if ok {
				clean = append(clean, n)
			}
		}
		b := new(Builder)
		b.String(s).Uint32(u32).Uint64(u64).Bool(flag).NameList(clean)
		r := NewReader(b.Bytes())
		gs := r.String()
		gu32 := r.Uint32()
		gu64 := r.Uint64()
		gflag := r.Bool()
		gnames := r.NameList()
		if r.Err() != nil || r.Remaining() != 0 {
			return false
		}
		if !bytes.Equal(gs, s) && !(len(gs) == 0 && len(s) == 0) {
			return false
		}
		if gu32 != u32 || gu64 != u64 || gflag != flag {
			return false
		}
		if len(gnames) != len(clean) {
			return len(clean) == 0 && gnames == nil
		}
		for i := range clean {
			if gnames[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MPInt round-trips for arbitrary non-negative integers.
func TestQuickMPIntRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		v := new(big.Int).SetBytes(raw)
		b := new(Builder)
		b.MPInt(v)
		r := NewReader(b.Bytes())
		got := r.MPInt()
		return r.Err() == nil && got.Cmp(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuilderString(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 256)
	bld := NewBuilder(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld.Reset()
		for j := 0; j < 8; j++ {
			bld.String(payload)
		}
	}
}

func BenchmarkReaderString(b *testing.B) {
	bld := NewBuilder(4096)
	payload := bytes.Repeat([]byte("x"), 256)
	for j := 0; j < 8; j++ {
		bld.String(payload)
	}
	buf := bld.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		for j := 0; j < 8; j++ {
			r.String()
		}
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}

func TestBuilderUtilities(t *testing.T) {
	b := NewBuilder(16)
	b.Raw([]byte{1, 2, 3})
	if b.Len() != 3 {
		t.Errorf("Len = %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("Len after Reset = %d", b.Len())
	}
}

func TestReaderUtilitiesAndErrorPaths(t *testing.T) {
	r := NewReader([]byte{0xaa, 0xbb, 0xcc})
	if r.Byte() != 0xaa {
		t.Error("Byte wrong")
	}
	if got := r.Remaining(); got != 2 {
		t.Errorf("Remaining = %d, want 2", got)
	}
	// Underflows set the error and all further reads return zero values.
	if r.Uint64() != 0 || r.Err() == nil {
		t.Error("Uint64 underflow should error")
	}
	if r.Uint32() != 0 || r.Byte() != 0 || r.Bool() {
		t.Error("reads after error must be zero")
	}
	if r.MPInt().Sign() != 0 {
		t.Error("MPInt after error must be zero")
	}
	if r.Bytes(1) != nil || r.String() != nil || r.NameList() != nil {
		t.Error("slice reads after error must be nil")
	}
}

func TestNegativeMPIntEncodesMagnitude(t *testing.T) {
	b := new(Builder)
	b.MPInt(big.NewInt(-5))
	r := NewReader(b.Bytes())
	if got := r.MPInt(); got.Cmp(big.NewInt(5)) != 0 || r.Err() != nil {
		t.Errorf("negative mpint = %v err=%v", got, r.Err())
	}
}
