package sshwire

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"

	"honeyfarm/internal/netsim"
)

// exchangeVersions is the handshake's opening without a KEXINIT: queue
// our identification, put it on the wire, read the peer's.
func exchangeVersions(tr *transport, local string, client bool) error {
	tr.sendVersion(local)
	if err := tr.flush(); err != nil {
		return err
	}
	return tr.readVersion(client)
}

// transportPair returns two transports wired together over netsim with
// versions already exchanged and the handshake's hold released, so each
// writePacket reaches the peer at once.
func transportPair(t *testing.T) (client, server *transport) {
	t.Helper()
	f := netsim.NewFabric()
	l, err := f.Listen("10.0.0.1", 22)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var srvConn net.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvConn, _ = l.Accept()
	}()
	cliConn, err := f.Dial("10.2.2.2", netsim.Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	client = newTransport(cliConn)
	server = newTransport(srvConn)
	errCh := make(chan error, 1)
	go func() {
		errCh <- exchangeVersions(server, "SSH-2.0-server", false)
	}()
	if err := exchangeVersions(client, "SSH-2.0-client", true); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*transport{client, server} {
		if err := tr.release(); err != nil {
			t.Fatal(err)
		}
	}
	return client, server
}

func TestPlaintextPacketRoundTrip(t *testing.T) {
	c, s := transportPair(t)
	payload := []byte{msgIgnore + 40, 1, 2, 3}
	if err := c.writePacket(payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.readPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %v", got)
	}
}

func TestTransparentMessages(t *testing.T) {
	c, s := transportPair(t)
	// IGNORE and DEBUG are consumed; the next real packet is returned.
	_ = c.writePacket([]byte{msgIgnore, 0, 0, 0, 0})
	_ = c.writePacket([]byte{msgDebug, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	_ = c.writePacket([]byte{msgKexInit, 9})
	got, err := s.readPacket()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != msgKexInit {
		t.Errorf("got message %d, want KEXINIT", got[0])
	}
}

func TestDisconnectSurfaced(t *testing.T) {
	c, s := transportPair(t)
	c.sendDisconnect(disconnectByApplication, "bye now")
	_, err := s.readPacket()
	de, ok := err.(*DisconnectError)
	if !ok {
		t.Fatalf("err = %v, want DisconnectError", err)
	}
	if de.Reason != disconnectByApplication || de.Message != "bye now" {
		t.Errorf("disconnect = %+v", de)
	}
	if !strings.Contains(de.Error(), "bye now") {
		t.Errorf("Error() = %q", de.Error())
	}
}

func TestEncryptedRoundTripAndTamper(t *testing.T) {
	c, s := transportPair(t)
	secret := bytes.Repeat([]byte{7}, 32)
	h := bytes.Repeat([]byte{8}, 32)
	// Client writes c2s, server reads c2s.
	if err := c.prepareKeys(
		deriveDirection(secret, h, h, true),
		deriveDirection(secret, h, h, false),
	); err != nil {
		t.Fatal(err)
	}
	if err := s.prepareKeys(
		deriveDirection(secret, h, h, false),
		deriveDirection(secret, h, h, true),
	); err != nil {
		t.Fatal(err)
	}
	c.activateWrite()
	s.activateRead()

	payload := []byte{msgChannelData, 0, 0, 0, 1, 0, 0, 0, 3, 'a', 'b', 'c'}
	if err := c.writePacket(payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.readPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("encrypted round trip = %v", got)
	}

	// Now write with the WRONG keys (reuse client's c2s stream state is
	// already advanced; easier: server's read MAC must reject a packet
	// written in plaintext by a fresh transport). Simulate tampering by
	// writing garbage bytes directly.
	if _, err := c.conn.Write(bytes.Repeat([]byte{0x42}, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.readPacket(); err == nil {
		t.Error("tampered ciphertext should fail MAC or length checks")
	}
}

func TestInvalidPacketLength(t *testing.T) {
	c, s := transportPair(t)
	// Hand-craft a packet with an absurd length field.
	raw := []byte{0xff, 0xff, 0xff, 0xff, 4, 0, 0, 0}
	if _, err := c.conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := s.readPacket(); err == nil {
		t.Error("oversized packet length should be rejected")
	}
}

func TestInvalidPadding(t *testing.T) {
	c, s := transportPair(t)
	// length=12, padding=200 (> packet) — must be rejected.
	raw := []byte{0, 0, 0, 12, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if _, err := c.conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := s.readPacket(); err == nil {
		t.Error("invalid padding should be rejected")
	}
}

func TestVersionLineTooLong(t *testing.T) {
	f := netsim.NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		_, _ = c.Write([]byte(strings.Repeat("x", 5000)))
	}()
	nc, err := f.Dial("10.2.2.2", netsim.Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	tr := newTransport(nc)
	if err := exchangeVersions(tr, "SSH-2.0-x", true); err == nil {
		t.Error("endless identification line should fail")
	}
}

func TestServerRejectsBannerFromClient(t *testing.T) {
	f := netsim.NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	errCh := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errCh <- err
			return
		}
		tr := newTransport(c)
		errCh <- exchangeVersions(tr, "SSH-2.0-server", false)
	}()
	nc, err := f.Dial("10.2.2.2", netsim.Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Clients must send the version first; banner lines are server-only.
	if _, err := nc.Write([]byte("hello there\r\nSSH-2.0-late\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Error("server should reject pre-version chatter from client")
	}
}

func TestOldProtocolVersionRejected(t *testing.T) {
	f := netsim.NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		_, _ = c.Write([]byte("SSH-1.5-oldjunk\r\n"))
	}()
	nc, err := f.Dial("10.2.2.2", netsim.Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	tr := newTransport(nc)
	if err := exchangeVersions(tr, "SSH-2.0-x", true); err == nil {
		t.Error("SSH-1.5 peer should be rejected")
	}
}

func TestPacketPaddingAlwaysValid(t *testing.T) {
	// Property-ish: a range of payload sizes round-trips in plaintext mode.
	c, s := transportPair(t)
	for size := 1; size <= 600; size += 37 {
		payload := bytes.Repeat([]byte{msgKexInit}, size)
		if err := c.writePacket(payload); err != nil {
			t.Fatalf("size %d write: %v", size, err)
		}
		got, err := s.readPacket()
		if err != nil {
			t.Fatalf("size %d read: %v", size, err)
		}
		if len(got) != size {
			t.Fatalf("size %d: got %d bytes", size, len(got))
		}
	}
}
