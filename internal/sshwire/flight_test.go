package sshwire

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// Flights pinned by TestFlightWrites: the Write calls each side makes
// for one accepted login followed by Close. It was 10 and 10 when every
// packet and every MAC was a Write.
const (
	loginServerWrites = 5 // [ident+KEXINIT] [KEX reply+NEWKEYS] [SERVICE_ACCEPT] [USERAUTH_SUCCESS] [DISCONNECT]
	loginClientWrites = 5 // [ident+KEXINIT] [KEX init] [NEWKEYS+SERVICE_REQUEST] [USERAUTH_REQUEST] [DISCONNECT]
)

// ioCount is a tally of Read and Write calls, shared by the conns of one
// side of a benchmark or owned by the one conn of a test.
type ioCount struct{ reads, writes atomic.Int64 }

// countConn counts the Read and Write calls made on a net.Conn.
type countConn struct {
	net.Conn
	*ioCount
}

func (c countConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// tcpPair returns a connected pair of counting conns over loopback TCP,
// where — unlike netsim — one Write is one segment and a flight written
// whole arrives whole.
func tcpPair(t testing.TB) (client, server countConn) {
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
	return countConn{cli, new(ioCount)}, countConn{srv, new(ioCount)}
}

// serveExec is the honeypot's exec path in miniature: accept a session,
// wait for exec, and say everything that is left in one held burst.
func serveExec(sc *ServerConn, output string) error {
	defer sc.Close()
	sess, err := sc.AcceptSession()
	if err != nil {
		return err
	}
	for req := range sess.Requests {
		if req.Type == "exec" {
			break
		}
	}
	sc.HoldWrites()
	if _, err := sess.Write([]byte(output)); err != nil {
		return err
	}
	if err := sess.SendExitStatus(0); err != nil {
		return err
	}
	if err := sess.CloseWrite(); err != nil {
		return err
	}
	if err := sess.Close(); err != nil {
		return err
	}
	return sc.Close()
}

// runExec is the matching client: open a session, exec, drain, close.
func runExec(cc *ClientConn) (string, error) {
	sess, err := cc.OpenSession()
	if err != nil {
		return "", err
	}
	if err := RequestExec(sess, "uname -a"); err != nil {
		return "", err
	}
	out, err := io.ReadAll(sess)
	if err != nil && !IsGracefulDisconnect(err) {
		return "", err
	}
	//lint:ignore error-discard the server has closed the socket by now; CLOSE is a courtesy
	_ = sess.Close()
	return string(out), nil
}

// TestFlightWrites pins how many times each side calls Write for the
// three sessions the Table-1 mix is made of. The counts are exact: the
// packets between two reads of one side share a Write, nothing else does.
func TestFlightWrites(t *testing.T) {
	cfg := &ServerConfig{HostKey: testHostKey(t), PasswordCallback: cowrieAuth, Banner: "authorized use only\n"}

	cases := []struct {
		name                     string
		client                   func(t *testing.T, nc net.Conn)
		serverFails              bool // the handshake ends in the client's disconnect
		exec                     bool
		serverWrites, clientWant int64
	}{
		{
			// [ident+KEXINIT] [KEX init] [NEWKEYS] [DISCONNECT] against
			// [ident+KEXINIT] [KEX reply+NEWKEYS].
			name: "NO_CRED",
			client: func(t *testing.T, nc net.Conn) {
				cc, err := NewClientConn(nc, &ClientConfig{SkipAuth: true})
				if err != nil {
					t.Fatal(err)
				}
				cc.Close()
			},
			serverFails: true, serverWrites: 2, clientWant: 4,
		},
		{
			// A SkipAuth client has flushed NEWKEYS before TryPasswords
			// begins, so SERVICE_REQUEST travels alone; the server adds
			// [SERVICE_ACCEPT+banner] [USERAUTH_FAILURE].
			name: "one rejected attempt",
			client: func(t *testing.T, nc net.Conn) {
				cc, err := NewClientConn(nc, &ClientConfig{SkipAuth: true})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cc.TryPasswords("root", []string{"root"}); err != ErrAuthFailed {
					t.Errorf("TryPasswords = %v, want ErrAuthFailed", err)
				}
				cc.Close()
			},
			serverFails: true, serverWrites: 4, clientWant: 6,
		},
		{
			name: "accepted login",
			client: func(t *testing.T, nc net.Conn) {
				cc, err := NewClientConn(nc, &ClientConfig{User: "root", Password: "pw"})
				if err != nil {
					t.Fatal(err)
				}
				cc.Close()
			},
			serverWrites: loginServerWrites, clientWant: loginClientWrites,
		},
		{
			// The login's four, then [CHANNEL_OPEN] [exec] [CLOSE]
			// [DISCONNECT] against [OPEN_CONFIRMATION] [REQUEST_SUCCESS]
			// [data+exit-status+EOF+CLOSE+DISCONNECT].
			name: "accepted login, exec",
			client: func(t *testing.T, nc net.Conn) {
				cc, err := NewClientConn(nc, &ClientConfig{User: "root", Password: "pw"})
				if err != nil {
					t.Fatal(err)
				}
				out, err := runExec(cc)
				if err != nil || out != "Linux\r\n" {
					t.Errorf("exec output %q, err %v", out, err)
				}
				cc.Close()
				// The CLOSE that answers the server's is the reader
				// goroutine's to send; it has, once that goroutine is gone.
				<-cc.mux.done
			},
			exec: true, serverWrites: 7, clientWant: 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := tcpPair(t)
			served := make(chan error, 1)
			go func() {
				sc, err := NewServerConn(srv, cfg)
				switch {
				case err != nil:
					served <- err
				case tc.exec:
					served <- serveExec(sc, "Linux\r\n")
				default:
					// Close only once the client has left, so that
					// DISCONNECT is the server's last Write and not a race.
					_, err := sc.AcceptSession()
					sc.Close()
					if IsGracefulDisconnect(err) {
						err = nil
					}
					served <- err
				}
			}()
			tc.client(t, cli)
			err := <-served
			if tc.serverFails {
				if !IsGracefulDisconnect(err) {
					t.Errorf("server handshake ended with %v, want the client's disconnect", err)
				}
			} else if err != nil {
				t.Errorf("server: %v", err)
			}
			if got := srv.writes.Load(); got != tc.serverWrites {
				t.Errorf("server made %d Writes, want %d", got, tc.serverWrites)
			}
			if got := cli.writes.Load(); got != tc.clientWant {
				t.Errorf("client made %d Writes, want %d", got, tc.clientWant)
			}
		})
	}
}

// replayConn serves prefix before reading from Conn: what a peer that
// has already consumed our identification line hands to its SSH stack.
type replayConn struct {
	net.Conn
	prefix []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.prefix) > 0 {
		n := copy(p, c.prefix)
		c.prefix = c.prefix[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// awaitIdent reads nc one byte at a time up to the first newline and
// returns a conn that replays those bytes. Until it returns, nothing has
// been written to nc: the peer must speak first, as OpenSSH makes it.
func awaitIdent(nc net.Conn) (net.Conn, error) {
	var line []byte
	one := make([]byte, 1)
	for len(line) < 256 {
		if _, err := io.ReadFull(nc, one); err != nil {
			return nil, err
		}
		line = append(line, one[0])
		if one[0] == '\n' {
			break
		}
	}
	return &replayConn{Conn: nc, prefix: line}, nil
}

// oneByteConn delivers one byte per Read, the worst a TCP stream may do.
type oneByteConn struct{ net.Conn }

func (c oneByteConn) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return c.Conn.Read(p)
}

// TestFlightInterop drives a full login and exec against peers whose
// ordering differs from ours. A held packet that nothing flushes shows
// here as a deadlock (bounded by the conns' deadline), not as a count.
func TestFlightInterop(t *testing.T) {
	cfg := &ServerConfig{HostKey: testHostKey(t), PasswordCallback: cowrieAuth}
	same := func(nc net.Conn) (net.Conn, error) { return nc, nil }
	dribble := func(nc net.Conn) (net.Conn, error) { return oneByteConn{nc}, nil }

	cases := []struct {
		name               string
		wrapCli, wrapServe func(net.Conn) (net.Conn, error)
	}{
		{"client waits for the server's identification", awaitIdent, same},
		{"server waits for the client's identification", same, awaitIdent},
		{"one byte per Read, both sides", dribble, dribble},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := tcpPair(t)
			served := make(chan error, 1)
			go func() {
				nc, err := tc.wrapServe(srv)
				if err != nil {
					served <- err
					return
				}
				sc, err := NewServerConn(nc, cfg)
				if err != nil {
					served <- err
					return
				}
				served <- serveExec(sc, "Linux\r\n")
			}()
			nc, err := tc.wrapCli(cli)
			if err != nil {
				t.Fatal(err)
			}
			cc, err := NewClientConn(nc, &ClientConfig{User: "root", Password: "pw"})
			if err != nil {
				t.Fatal(err)
			}
			out, err := runExec(cc)
			if err != nil || out != "Linux\r\n" {
				t.Errorf("exec output %q, err %v", out, err)
			}
			cc.Close()
			if err := <-served; err != nil {
				t.Errorf("server: %v", err)
			}
		})
	}
}

// TestSkipAuthFlushesNewKeys: a NO_CRED client's NEWKEYS is queued behind
// no read (the server's NEWKEYS came with its KEX reply), so NewClientConn
// must put it on the wire itself. The client then does nothing at all, and
// the server's key exchange must still complete.
func TestSkipAuthFlushesNewKeys(t *testing.T) {
	cli, srv := tcpPair(t)
	cfg := &ServerConfig{HostKey: testHostKey(t), PasswordCallback: cowrieAuth}
	kexDone := make(chan error, 1)
	st := newTransport(srv)
	go func() { kexDone <- serverKex(st, cfg, "SSH-2.0-OpenSSH_7.9p1") }()

	cc, err := NewClientConn(cli, &ClientConfig{SkipAuth: true, Version: "SSH-2.0-scanner"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-kexDone:
		if err != nil {
			t.Fatalf("server key exchange: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server key exchange still waiting for NEWKEYS after NewClientConn returned")
	}
	if st.remoteVersion != "SSH-2.0-scanner" {
		t.Errorf("server saw client version %q", st.remoteVersion)
	}
	if cc.ServerVersion() != "SSH-2.0-OpenSSH_7.9p1" {
		t.Errorf("client saw server version %q", cc.ServerVersion())
	}
	cc.Close()
}

// TestHeldWriteFlushesBeforeWaiting: under HoldWrites, a request that
// wants a reply and a channel write that runs out of window must not sit
// in the buffer while their writer waits for the peer.
func TestHeldWriteFlushesBeforeWaiting(t *testing.T) {
	cli, srv := tcpPair(t)
	cfg := &ServerConfig{HostKey: testHostKey(t), PasswordCallback: cowrieAuth}
	const window = 1000
	served := make(chan error, 1)
	go func() {
		sc, err := NewServerConn(srv, cfg)
		if err != nil {
			served <- err
			return
		}
		defer sc.Close()
		sess, err := sc.AcceptSession()
		if err != nil {
			served <- err
			return
		}
		sc.HoldWrites()
		if ok, err := sess.SendRequest("keepalive@test", true, nil); err != nil || ok {
			t.Errorf("held request with reply: ok %v, err %v; want a refusal", ok, err)
		}
		// Pretend the client advertised a window far below maxHeldBytes.
		// It will not reopen it (too little consumed), so the write ends
		// when the client hangs up; what matters is what arrived by then.
		sess.mu.Lock()
		sess.remoteWindow = window
		sess.mu.Unlock()
		n, err := sess.Write(make([]byte, 5*window))
		if n != window || err == nil {
			t.Errorf("write past the window: n %d, err %v; want %d and the hang-up", n, err, window)
		}
		served <- nil
	}()
	cc, err := NewClientConn(cli, &ClientConfig{User: "root", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(sess, make([]byte, window)); err != nil {
		t.Fatalf("the window's worth of held data never arrived: %v", err)
	}
	cc.Close()
	if err := <-served; err != nil {
		t.Errorf("server: %v", err)
	}
}
