package sshwire

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"slices"
	"strings"
	"sync"

	"honeyfarm/internal/wire"
)

// Transport-level limits (RFC 4253 §6.1).
const (
	maxPacketLen   = 35000
	minPaddingLen  = 4
	plainBlockSize = 8
	aesBlockSize   = 16
)

// ErrDisconnected is returned when the peer sent SSH_MSG_DISCONNECT.
var ErrDisconnected = errors.New("sshwire: peer disconnected")

// DisconnectError carries the peer's disconnect reason.
type DisconnectError struct {
	Reason  uint32
	Message string
}

func (e *DisconnectError) Error() string {
	return fmt.Sprintf("sshwire: disconnected by peer: %s (reason %d)", e.Message, e.Reason)
}

// Is reports that any DisconnectError matches ErrDisconnected.
func (e *DisconnectError) Is(target error) bool { return target == ErrDisconnected }

// IsGracefulDisconnect reports whether err is the peer's normal
// by-application disconnect (RFC 4253 reason 11). Whether a drain of the
// final channel output sees channel EOF or this transport-level notice
// is a teardown race; both are orderly closes, not failures.
func IsGracefulDisconnect(err error) bool {
	var de *DisconnectError
	return errors.As(err, &de) && de.Reason == disconnectByApplication
}

// direction holds one direction's active cryptographic state.
type direction struct {
	stream cipher.Stream
	mac    hash.Hash
	seq    uint32
	seqBuf [4]byte // seq as the MAC sees it; here so it is not a per-packet allocation
}

// macSize is the length of the MAC that follows each packet, 0 before keys.
func (d *direction) macSize() int {
	if d.mac == nil {
		return 0
	}
	return d.mac.Size()
}

// sum appends the MAC of packet under the direction's sequence number to
// b (RFC 4253 §6.4) and returns the extended slice.
func (d *direction) sum(b, packet []byte) []byte {
	d.mac.Reset()
	binary.BigEndian.PutUint32(d.seqBuf[:], d.seq)
	d.mac.Write(d.seqBuf[:])
	d.mac.Write(packet)
	return d.mac.Sum(b)
}

// maxHeldBytes bounds what a held transport queues before it flushes
// anyway: enough for any handshake or teardown flight, small enough that
// channel data written under a hold does not pile up.
const maxHeldBytes = 16 << 10

// transport implements the SSH binary packet protocol over a net.Conn.
// Reads and writes may proceed concurrently (one reader, one writer).
//
// Writes leave in flights, not packets. Every packet is framed at the
// tail of wbuf and wbuf reaches the socket in one conn.Write. While the
// transport is held — from newTransport until newMux, and again for a
// server's teardown burst — packets queue there and are flushed
//
//   - when a handshake read has to go to the socket (what the peer will
//     answer must be on the wire before we wait for the answer),
//   - by sendDisconnect,
//   - when NewServerConn, NewClientConn or TryPasswords hand the
//     connection back to their caller: newMux releases the hold on
//     success, a SkipAuth client flushes its NEWKEYS, and every other
//     return comes straight from a read,
//
// so the packets one side produces between two of its reads share a TCP
// segment, as they do from OpenSSH or Twisted Conch. (openKex flushes once
// more, by hand, to make its key while the peer reads.) Not held,
// writePacket flushes at once: the same code, not a second path.
type transport struct {
	conn net.Conn
	br   *bufio.Reader // over handshakeReader, not conn

	readMu  sync.Mutex
	writeMu sync.Mutex
	read    direction
	write   direction

	wbuf []byte // framed, unsent; guarded by writeMu
	held bool   // guarded by writeMu
	rbuf []byte // the packet being read; guarded by readMu

	// handshaking is true until newMux. One goroutine owns both
	// directions for that long, which is what lets a read flush; the mux's
	// reader goroutine must never wait on writeMu behind a blocked writer.
	// newMux clears it before that goroutine starts.
	handshaking bool

	// pendingWrite/pendingRead hold keys negotiated during a key exchange,
	// activated when NEWKEYS is sent/received.
	pendingWrite *direction
	pendingRead  *direction

	localVersion  string
	remoteVersion string
}

func newTransport(conn net.Conn) *transport {
	t := &transport{conn: conn, held: true, handshaking: true}
	t.br = bufio.NewReaderSize(handshakeReader{t}, 4096)
	return t
}

// handshakeReader is the socket as br sees it. br comes here only when
// it has run dry, so this is the point where a read is about to block.
type handshakeReader struct{ t *transport }

func (r handshakeReader) Read(p []byte) (int, error) {
	if r.t.handshaking {
		if err := r.t.flush(); err != nil {
			return 0, err
		}
	}
	return r.t.conn.Read(p)
}

// sendVersion queues our identification string (RFC 4253 §4.2). KEXINIT
// may follow it at once (§7.1), so the two leave together.
func (t *transport) sendVersion(local string) {
	t.localVersion = local
	t.writeMu.Lock()
	t.wbuf = append(append(t.wbuf, local...), '\r', '\n')
	t.writeMu.Unlock()
}

// readVersion reads the peer's identification string. Pre-version banner
// lines from the server are skipped on the client side.
func (t *transport) readVersion(client bool) error {
	for i := 0; i < 32; i++ { // bounded banner skip
		line, err := t.readLine()
		if err != nil {
			return fmt.Errorf("sshwire: reading version: %w", err)
		}
		if strings.HasPrefix(line, "SSH-") {
			if !strings.HasPrefix(line, "SSH-2.0-") && !strings.HasPrefix(line, "SSH-1.99-") {
				return fmt.Errorf("sshwire: unsupported protocol version %q", line)
			}
			t.remoteVersion = line
			return nil
		}
		if !client {
			return fmt.Errorf("sshwire: client sent non-version line %q", line)
		}
	}
	return errors.New("sshwire: no version line within banner limit")
}

func (t *transport) readLine() (string, error) {
	var b strings.Builder
	for b.Len() < 1024 {
		c, err := t.br.ReadByte()
		if err != nil {
			return "", err
		}
		if c == '\n' {
			return strings.TrimSuffix(b.String(), "\r"), nil
		}
		b.WriteByte(c)
	}
	return "", errors.New("sshwire: identification line too long")
}

// writePacket sends one SSH packet containing payload, or queues it if
// the transport is held.
func (t *transport) writePacket(payload []byte) error { return t.send(payload, false) }

// flush sends what a held transport has queued, and leaves it held.
func (t *transport) flush() error { return t.send(nil, true) }

// hold makes writePacket queue until release, flush or sendDisconnect.
// Whoever holds a transport outside the handshake must flush before it
// waits for anything the peer sends in answer to a queued packet.
func (t *transport) hold() {
	t.writeMu.Lock()
	t.held = true
	t.writeMu.Unlock()
}

// release ends a hold and sends what it queued.
func (t *transport) release() error {
	t.writeMu.Lock()
	t.held = false
	t.writeMu.Unlock()
	return t.flush()
}

// send is the transport's one write site. It frames payload, if there is
// one, behind whatever is queued, and — unless the transport is held and
// the caller does not insist — hands the queue to the socket in a single
// Write.
func (t *transport) send(payload []byte, flush bool) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if payload != nil {
		if err := t.frame(payload); err != nil {
			return err
		}
	}
	if len(t.wbuf) == 0 || (t.held && !flush && len(t.wbuf) < maxHeldBytes) {
		return nil
	}
	// writeMu exists to put whole frames on the wire in sequence-number
	// order, so holding it across the conn write is the invariant, not a
	// hazard.
	//lint:ignore lock-across-blocking writeMu serializes frame writes; holding it across the conn write is its purpose
	_, err := t.conn.Write(t.wbuf)
	t.wbuf = t.wbuf[:0]
	if err != nil {
		return fmt.Errorf("sshwire: writing packet: %w", err)
	}
	return nil
}

// frame appends one SSH packet — length, padding length, payload, random
// padding, MAC — to wbuf, building it in place. The caller holds writeMu.
func (t *transport) frame(payload []byte) error {
	block := plainBlockSize
	if t.write.stream != nil {
		block = aesBlockSize
	}
	// packet_length(4) + padding_length(1) + payload + padding ≡ 0 mod block
	padding := block - (5+len(payload))%block
	if padding < minPaddingLen {
		padding += block
	}
	length := 1 + len(payload) + padding

	start := len(t.wbuf)
	t.wbuf = slices.Grow(t.wbuf, 4+length+t.write.macSize())[:start+4+length]
	packet := t.wbuf[start:]
	binary.BigEndian.PutUint32(packet, uint32(length))
	packet[4] = byte(padding)
	copy(packet[5:], payload)
	if _, err := rand.Read(packet[5+len(payload):]); err != nil {
		t.wbuf = t.wbuf[:start]
		return fmt.Errorf("sshwire: random padding: %w", err)
	}
	if t.write.mac != nil {
		t.wbuf = t.write.sum(t.wbuf, packet) // over the plaintext, then encrypt
	}
	if t.write.stream != nil {
		t.write.stream.XORKeyStream(packet, packet)
	}
	t.write.seq++
	return nil
}

// readPacket reads one SSH packet and returns its payload. Transparent
// messages (IGNORE, DEBUG) are consumed internally; DISCONNECT returns a
// DisconnectError.
//
// The payload aliases the transport's read buffer and is valid until the
// next readPacket. Every consumer copies what it keeps before then:
// parseKexInit clones into raw, wire.Reader's Text, NameList and MPInt
// copy, the kex code is done with qC, qS, the host key blob and the
// signature before it reads NEWKEYS, checkHostKey clones the blob it
// hands to a callback, and the mux appends channel data to ch.buf.
func (t *transport) readPacket() ([]byte, error) {
	for {
		payload, err := t.readPacketRaw()
		if err != nil {
			return nil, err
		}
		if len(payload) == 0 {
			return nil, errors.New("sshwire: empty packet payload")
		}
		switch payload[0] {
		case msgIgnore, msgDebug:
			continue
		case msgDisconnect:
			r := wire.NewReader(payload[1:])
			reason := r.Uint32()
			msg := r.Text()
			return nil, &DisconnectError{Reason: reason, Message: msg}
		case msgUnimplemented:
			continue
		}
		return payload, nil
	}
}

// readPacketRaw reads first block, rest of the packet, received MAC and
// computed MAC into rbuf, in that order, growing it only when a packet
// is larger than any before (never past maxPacketLen plus two MACs).
func (t *transport) readPacketRaw() ([]byte, error) {
	t.readMu.Lock()
	defer t.readMu.Unlock()

	block := plainBlockSize
	if t.read.stream != nil {
		block = aesBlockSize
	}
	macLen := t.read.macSize()

	first := t.sizeRead(block, 0)
	if _, err := io.ReadFull(t.br, first); err != nil {
		return nil, err
	}
	if t.read.stream != nil {
		t.read.stream.XORKeyStream(first, first)
	}
	length := binary.BigEndian.Uint32(first)
	if length > maxPacketLen || length < 1 {
		return nil, fmt.Errorf("sshwire: invalid packet length %d", length)
	}
	total := 4 + int(length)
	if total%block != 0 {
		return nil, fmt.Errorf("sshwire: packet length %d not a multiple of block size", total)
	}
	buf := t.sizeRead(total+2*macLen, block)
	if _, err := io.ReadFull(t.br, buf[block:total+macLen]); err != nil {
		return nil, err
	}
	packet := buf[:total]
	if t.read.stream != nil {
		t.read.stream.XORKeyStream(packet[block:], packet[block:])
	}
	if t.read.mac != nil {
		received := buf[total : total+macLen]
		computed := t.read.sum(buf[:total+macLen], packet)[total+macLen:]
		if subtle.ConstantTimeCompare(received, computed) != 1 {
			return nil, errors.New("sshwire: MAC verification failed")
		}
	}
	t.read.seq++

	padding := int(packet[4])
	if padding < minPaddingLen || 5+padding > len(packet) {
		return nil, fmt.Errorf("sshwire: invalid padding length %d", padding)
	}
	return packet[5 : len(packet)-padding], nil
}

// sizeRead returns rbuf resized to n bytes with its first keep bytes
// intact. Capacity grows in 1 KiB steps so a run of slightly larger
// packets does not reallocate each time.
func (t *transport) sizeRead(n, keep int) []byte {
	if cap(t.rbuf) < n {
		grown := make([]byte, n, (n+1023)&^1023)
		copy(grown, t.rbuf[:keep])
		t.rbuf = grown
	}
	t.rbuf = t.rbuf[:n]
	return t.rbuf
}

// keys holds one direction's derived key material.
type keys struct {
	iv, key, macKey []byte
}

// prepareKeys stages new cryptographic state; it becomes active on
// NEWKEYS via activateWrite/activateRead.
func (t *transport) prepareKeys(write, read keys) error {
	mkDir := func(k keys) (*direction, error) {
		blk, err := aes.NewCipher(k.key)
		if err != nil {
			return nil, err
		}
		return &direction{
			stream: cipher.NewCTR(blk, k.iv),
			mac:    hmac.New(sha256.New, k.macKey),
		}, nil
	}
	w, err := mkDir(write)
	if err != nil {
		return err
	}
	r, err := mkDir(read)
	if err != nil {
		return err
	}
	t.pendingWrite, t.pendingRead = w, r
	return nil
}

func (t *transport) activateWrite() {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	t.pendingWrite.seq = t.write.seq
	t.write = *t.pendingWrite
	t.pendingWrite = nil
}

func (t *transport) activateRead() {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	t.pendingRead.seq = t.read.seq
	t.read = *t.pendingRead
	t.pendingRead = nil
}

// sendDisconnect notifies the peer and is best-effort. It is the last
// thing a side says, so it takes whatever is held with it.
func (t *transport) sendDisconnect(reason uint32, message string) {
	b := wire.NewBuilder(64)
	b.Byte(msgDisconnect).Uint32(reason).Text(message).Text("")
	//lint:ignore error-discard disconnect notice is best-effort by definition
	_ = t.send(b.Bytes(), true)
}

func (t *transport) Close() error { return t.conn.Close() }
