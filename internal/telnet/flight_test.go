package telnet

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Flights pinned by TestFlightWrites: the Write calls each side makes
// for one accepted login. It was 8 and 8 when every prompt and every
// 3-byte IAC answer was a Write.
const (
	loginServerWrites = 3 // [offers+banner+login:] [Password:] [motd]
	loginClientWrites = 2 // [DO ECHO+DO SGA+user] [password]
)

// tapConn counts the Write calls made on a net.Conn and keeps what was
// written.
type tapConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	sent   []byte
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.sent = append(c.sent, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) tally() (writes int, sent []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, append([]byte(nil), c.sent...)
}

// tcpPair returns a connected pair of tapped conns over loopback TCP,
// where — unlike netsim — one Write is one segment.
func tcpPair(t testing.TB) (client, server *tapConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, ok := <-accepted
	if !ok {
		cli.Close()
		t.Fatal("accept failed")
	}
	deadline := time.Now().Add(10 * time.Second)
	cli.SetDeadline(deadline)
	srv.SetDeadline(deadline)
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return &tapConn{Conn: cli}, &tapConn{Conn: srv}
}

// TestFlightWrites pins how many times each side calls Write for the two
// login outcomes. The counts are exact: what one side says between two of
// its own reads is one Write, and nothing else is.
func TestFlightWrites(t *testing.T) {
	doEcho := []byte{cmdIAC, cmdDO, optEcho}
	doSGA := []byte{cmdIAC, cmdDO, optSuppressGoAhead}
	offers := []byte{cmdIAC, cmdWILL, optEcho, cmdIAC, cmdWILL, optSuppressGoAhead}

	for _, tc := range []struct {
		name                       string
		passwords                  []string
		wantErr                    error
		serverWrites, clientWrites int
	}{
		{"accepted login", []string{"1234"}, nil, loginServerWrites, loginClientWrites},
		// [offers+login:] [Password:] then twice [Login incorrect+login:]
		// [Password:], then [Login incorrect]; a user and a password each.
		{"three strikes", []string{"root", "root", "root"}, ErrTooManyTries, 7, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := tcpPair(t)
			done := make(chan error, 1)
			go func() {
				_, err := Handshake(srv, &ServerConfig{Banner: "Debian GNU/Linux 10", Auth: cowrieAuth})
				srv.Close()
				done <- err
			}()
			c := NewConn(cli, false)
			for i, pw := range tc.passwords {
				ok, err := ClientLogin(c, "root", pw)
				if err != nil || ok != (tc.wantErr == nil) {
					t.Fatalf("attempt %d: ok=%v err=%v", i+1, ok, err)
				}
			}
			if err := <-done; !errors.Is(err, tc.wantErr) {
				t.Fatalf("Handshake: %v, want %v", err, tc.wantErr)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			sw, fromServer := srv.tally()
			cw, fromClient := cli.tally()
			if sw != tc.serverWrites || cw != tc.clientWrites {
				t.Errorf("Writes: server %d, client %d; want %d and %d", sw, cw, tc.serverWrites, tc.clientWrites)
			}
			// The client acknowledges each offer once; the server does not
			// acknowledge the acknowledgement.
			if n := bytes.Count(fromClient, doEcho); n != 1 {
				t.Errorf("client sent DO ECHO %d times, want once", n)
			}
			if n := bytes.Count(fromClient, doSGA); n != 1 {
				t.Errorf("client sent DO SGA %d times, want once", n)
			}
			if !bytes.HasPrefix(fromServer, offers) {
				t.Errorf("server opened with % x, want its two offers", fromServer[:min(6, len(fromServer))])
			}
			if n := bytes.Count(fromServer, []byte{cmdIAC}); n != 2 {
				t.Errorf("server sent %d IAC sequences, want only its two offers", n)
			}
		})
	}
}

// TestNegotiationTerminates pins the option table: a request to enter the
// state an option is already in draws nothing, a change draws one reply,
// and that reply is not immediate — it travels with the next flush.
func TestNegotiationTerminates(t *testing.T) {
	for _, tc := range []struct {
		name    string
		server  bool
		offered bool // the server has sent its WILL ECHO / WILL SGA
		in      []byte
		want    []byte
	}{
		{"ack of an offer", true, true, []byte{cmdIAC, cmdDO, optEcho, cmdIAC, cmdDO, optSuppressGoAhead}, nil},
		{"unsolicited DO of what we will do", true, false, []byte{cmdIAC, cmdDO, optEcho}, []byte{cmdIAC, cmdWILL, optEcho}},
		{"the same DO twice", true, false, []byte{cmdIAC, cmdDO, optEcho, cmdIAC, cmdDO, optEcho}, []byte{cmdIAC, cmdWILL, optEcho}},
		{"DO of what we will not", true, false, []byte{cmdIAC, cmdDO, 31}, []byte{cmdIAC, cmdWONT, 31}},
		{"DONT of what is off", true, false, []byte{cmdIAC, cmdDONT, 31}, nil},
		{"offer refused", true, true, []byte{cmdIAC, cmdDONT, optEcho, cmdIAC, cmdDONT, optEcho}, []byte{cmdIAC, cmdWONT, optEcho}},
		{"client WILL refused by the server", true, false, []byte{cmdIAC, cmdWILL, 31}, []byte{cmdIAC, cmdDONT, 31}},
		{"client WONT of what is off", true, false, []byte{cmdIAC, cmdWONT, 31}, nil},
		{"server WILL accepted by the client, once", false, false, []byte{cmdIAC, cmdWILL, optEcho, cmdIAC, cmdWILL, optEcho}, []byte{cmdIAC, cmdDO, optEcho}},
		{"server WONT after WILL", false, false, []byte{cmdIAC, cmdWILL, 5, cmdIAC, cmdWONT, 5, cmdIAC, cmdWONT, 5}, []byte{cmdIAC, cmdDO, 5, cmdIAC, cmdDONT, 5}},
		{"client does nothing itself", false, false, []byte{cmdIAC, cmdDO, 24}, []byte{cmdIAC, cmdWONT, 24}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scriptConn{in: append(tc.in, "x\n"...)}
			c := NewConn(s, tc.server)
			if tc.offered {
				c.us.set(optEcho, true)
				c.us.set(optSuppressGoAhead, true)
			}
			if line, err := c.ReadLine(); err != nil || line != "x" {
				t.Fatalf("ReadLine = %q, %v", line, err)
			}
			if s.writes != 0 {
				t.Errorf("%d Writes before the next flush point", s.writes)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s.out, tc.want) {
				t.Errorf("replied % x, want % x", s.out, tc.want)
			}
		})
	}
}

// TestConnFootprint pins what an open connection keeps resident before it
// has written anything: one object in the 1,280-byte size class (1,152
// bytes and the allocator's header), read buffer and option state
// included. It was three objects: Conn, bufio.Reader and its 1 KiB buffer.
func TestConnFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Conn{}); size > 1280-8 {
		t.Errorf("Conn is %d bytes, over the 1,280-byte size class", size)
	}
	var sink *Conn
	if allocs := testing.AllocsPerRun(100, func() { sink = NewConn(nil, true) }); allocs != 1 {
		t.Errorf("NewConn makes %v allocations, want 1", allocs)
	}
	_ = sink
}
