package sshwire

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
)

// scriptConn is a net.Conn that plays back a fixed byte string, at most
// chunk bytes per Read (0: as many as fit), and records what is written.
type scriptConn struct {
	net.Conn // nil: the transport uses Read, Write and Close only
	in       *bytes.Reader
	chunk    int
	out      bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.chunk > 0 && len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.in.Read(p)
}

func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { return nil }

// fuzzKeys is the fixed key material of the keyed half of the corpus.
func fuzzKeys() keys {
	secret := bytes.Repeat([]byte{0x5a}, 32)
	h := bytes.Repeat([]byte{0xa5}, 32)
	return deriveDirection(secret, h, h, true)
}

// fuzzReader returns a transport past its handshake that reads data,
// under fuzzKeys when keyed.
func fuzzReader(tb testing.TB, data []byte, keyed bool, chunk int) *transport {
	tb.Helper()
	tr := newTransport(&scriptConn{in: bytes.NewReader(data), chunk: chunk})
	tr.handshaking = false
	if err := tr.release(); err != nil {
		tb.Fatal(err)
	}
	if keyed {
		if err := tr.prepareKeys(fuzzKeys(), fuzzKeys()); err != nil {
			tb.Fatal(err)
		}
		tr.activateRead()
	}
	return tr
}

// wireBytes frames payloads as a peer would and returns the bytes.
func wireBytes(tb testing.TB, keyed bool, payloads ...[]byte) []byte {
	tb.Helper()
	conn := &scriptConn{in: bytes.NewReader(nil)}
	tr := newTransport(conn)
	if keyed {
		if err := tr.prepareKeys(fuzzKeys(), fuzzKeys()); err != nil {
			tb.Fatal(err)
		}
		tr.activateWrite()
	}
	for _, p := range payloads {
		if err := tr.writePacket(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tr.flush(); err != nil {
		tb.Fatal(err)
	}
	return conn.out.Bytes()
}

// refReadPacket is the reference readPacketRaw: the same checks in the
// same order, every piece in a slice of its own. The transport's
// one-buffer reader must agree with it packet for packet.
func refReadPacket(r io.Reader, d *direction) ([]byte, error) {
	block := plainBlockSize
	if d.stream != nil {
		block = aesBlockSize
	}
	first := make([]byte, block)
	if _, err := io.ReadFull(r, first); err != nil {
		return nil, err
	}
	if d.stream != nil {
		d.stream.XORKeyStream(first, first)
	}
	length := binary.BigEndian.Uint32(first)
	if length > maxPacketLen || length < 1 {
		return nil, fmt.Errorf("invalid packet length %d", length)
	}
	total := 4 + int(length)
	if total%block != 0 {
		return nil, fmt.Errorf("packet length %d not a multiple of block size", total)
	}
	rest := make([]byte, total-block)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, err
	}
	if d.stream != nil {
		d.stream.XORKeyStream(rest, rest)
	}
	packet := append(first, rest...)
	if d.mac != nil {
		sum := make([]byte, d.mac.Size())
		if _, err := io.ReadFull(r, sum); err != nil {
			return nil, err
		}
		d.mac.Reset()
		var seq [4]byte
		binary.BigEndian.PutUint32(seq[:], d.seq)
		d.mac.Write(seq[:])
		d.mac.Write(packet)
		if subtle.ConstantTimeCompare(sum, d.mac.Sum(nil)) != 1 {
			return nil, errors.New("MAC verification failed")
		}
	}
	d.seq++
	padding := int(packet[4])
	if padding < minPaddingLen || 5+padding > len(packet) {
		return nil, fmt.Errorf("invalid padding length %d", padding)
	}
	return packet[5 : len(packet)-padding], nil
}

// refNext is the reference readPacket: refReadPacket with the transparent
// messages skipped and DISCONNECT surfaced as an error.
func refNext(r io.Reader, d *direction) ([]byte, error) {
	for {
		payload, err := refReadPacket(r, d)
		if err != nil {
			return nil, err
		}
		if len(payload) == 0 {
			return nil, errors.New("empty packet payload")
		}
		switch payload[0] {
		case msgIgnore, msgDebug, msgUnimplemented:
			continue
		case msgDisconnect:
			return nil, ErrDisconnected
		}
		return payload, nil
	}
}

// packetSeed is one corpus entry: wire bytes, and whether they are read
// under fuzzKeys.
type packetSeed struct {
	keyed bool
	data  []byte
}

// readPacketSeeds is the seed corpus by class. The copy checked in under
// testdata/fuzz/FuzzReadPacket is what tier-1 runs; WRITE_FUZZ_CORPUS=1
// go test -run TestReadPacketCorpus rewrites it from here.
func readPacketSeeds(tb testing.TB) map[string]packetSeed {
	small := []byte{msgKexInit, 1, 2, 3}
	big := bytes.Repeat([]byte{msgChannelData}, 700)
	ignore := []byte{msgIgnore, 0, 0, 0, 0}
	debug := []byte{msgDebug, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	unimpl := []byte{msgUnimplemented, 0, 0, 0, 7}
	bye := []byte{msgDisconnect, 0, 0, 0, disconnectByApplication, 0, 0, 0, 3, 'b', 'y', 'e', 0, 0, 0, 0}

	seeds := map[string]packetSeed{}
	add := func(name string, keyed bool, data []byte) { seeds[name] = packetSeed{keyed, data} }
	flipLast := func(b []byte) []byte {
		b = bytes.Clone(b)
		b[len(b)-1] ^= 1
		return b
	}
	for _, keyed := range []bool{false, true} {
		mode := "plain"
		if keyed {
			mode = "keyed"
		}
		valid := wireBytes(tb, keyed, small)
		add(mode+"-valid", keyed, valid)
		add(mode+"-grow-then-shrink", keyed, wireBytes(tb, keyed, small, big, small))
		add(mode+"-truncated", keyed, valid[:len(valid)-5])
		add(mode+"-transparent-run", keyed, wireBytes(tb, keyed, ignore, debug, unimpl, ignore, small))
		add(mode+"-disconnect", keyed, wireBytes(tb, keyed, small, bye, small))
		add(mode+"-flipped-tail", keyed, append(flipLast(valid), wireBytes(tb, keyed, small)...))
	}
	// The length and padding fields by hand; under keys they are whatever
	// the keystream makes of these bytes, which is the point.
	for name, raw := range map[string][]byte{
		"length-zero":          {0, 0, 0, 0, 4, 0, 0, 0},
		"length-max-plus-one":  {0, 0, 0x88, 0xb9, 4, 0, 0, 0},
		"length-huge":          {0xff, 0xff, 0xff, 0xff, 4, 0, 0, 0},
		"length-not-block":     {0, 0, 0, 13, 4, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0},
		"padding-under-four":   {0, 0, 0, 12, 3, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0},
		"padding-over-packet":  {0, 0, 0, 12, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		"payload-empty":        {0, 0, 0, 12, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"length-max-truncated": {0, 0, 0x88, 0xb4, 4, 1, 2, 3},
	} {
		add("plain-"+name, false, raw)
		add("keyed-"+name, true, append(raw, make([]byte, 64)...))
	}
	return seeds
}

func TestReadPacketCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadPacket")
	seeds := readPacketSeeds(t)
	if os.Getenv("WRITE_FUZZ_CORPUS") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\nbool(%v)\nbyte(%q)\n[]byte(%q)\n", s.keyed, byte(0), s.data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name := range seeds {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("seed class %s has no checked-in corpus file: %v", name, err)
		}
	}
}

// FuzzReadPacket feeds arbitrary bytes to the packet reader, in plaintext
// and under fixed known keys, whole or a few bytes per Read, and compares
// it with refReadPacket. It must not panic; its buffer must stay within
// maxPacketLen plus fixed slack whatever the length field says; a payload
// must still read the same just before the next read, with a write in
// between; and copies taken of earlier payloads must survive the reuse
// of the buffer by later ones.
func FuzzReadPacket(f *testing.F) {
	for _, s := range readPacketSeeds(f) {
		f.Add(s.keyed, byte(0), s.data)
		f.Add(s.keyed, byte(1), s.data)
	}
	const maxRead = 4 + maxPacketLen + 2*32 + 1024 // packet, both MACs, sizeRead's rounding

	f.Fuzz(func(t *testing.T, keyed bool, chunk byte, data []byte) {
		tr := fuzzReader(t, data, keyed, int(chunk))
		ref := bytes.NewReader(data)
		refDir := &direction{}
		if keyed {
			twin := fuzzReader(t, nil, true, 0)
			refDir = &twin.read
		}

		var kept [][]byte // copies of every payload returned so far
		var want [][]byte // what the reference says they were
		for i := 0; i < 64; i++ {
			got, err := tr.readPacket()
			exp, refErr := refNext(ref, refDir)
			if cap(tr.rbuf) > maxRead {
				t.Fatalf("read buffer grew to %d bytes, bound is %d", cap(tr.rbuf), maxRead)
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("packet %d: err %v, reference err %v", i, err, refErr)
			}
			if err != nil {
				break
			}
			if !bytes.Equal(got, exp) {
				t.Fatalf("packet %d: payload %x, reference %x", i, got, exp)
			}
			// Nothing but the next read may touch the payload: not a
			// write on the same transport.
			if werr := tr.writePacket([]byte{msgIgnore, 0, 0, 0, 0}); werr != nil {
				t.Fatal(werr)
			}
			if !bytes.Equal(got, exp) {
				t.Fatalf("packet %d: payload changed under a write", i)
			}
			kept = append(kept, bytes.Clone(got))
			want = append(want, exp)
		}
		for i := range kept {
			if !bytes.Equal(kept[i], want[i]) {
				t.Fatalf("copy of packet %d was corrupted by a later read", i)
			}
		}
		if tr.read.seq != refDir.seq {
			t.Fatalf("sequence number %d, reference %d", tr.read.seq, refDir.seq)
		}
	})
}
