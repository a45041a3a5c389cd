package sshwire

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"honeyfarm/internal/netsim"
)

func testHostKey(t testing.TB) ed25519.PrivateKey {
	t.Helper()
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return priv
}

// pipePair returns a connected client/server net.Conn pair over netsim.
func pipePair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	f := netsim.NewFabric()
	l, err := f.Listen("10.0.0.1", 22)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var srv net.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, _ = l.Accept()
	}()
	cli, err := f.Dial("10.2.2.2", netsim.Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return cli, srv
}

// cowrieAuth is the paper's honeypot policy: user root, any password
// except "root".
func cowrieAuth(user, password string) bool {
	return user == "root" && password != "root"
}

type handshakeResult struct {
	conn *ServerConn
	err  error
}

func startServer(t testing.TB, nc net.Conn, cfg *ServerConfig) chan handshakeResult {
	t.Helper()
	ch := make(chan handshakeResult, 1)
	go func() {
		conn, err := NewServerConn(nc, cfg)
		ch <- handshakeResult{conn, err}
	}()
	return ch
}

func TestHandshakeAndExec(t *testing.T) {
	cli, srv := pipePair(t)
	hostKey := testHostKey(t)
	var attempts []AuthAttempt
	var mu sync.Mutex
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          hostKey,
		PasswordCallback: cowrieAuth,
		AuthLogCallback: func(a AuthAttempt) {
			mu.Lock()
			attempts = append(attempts, a)
			mu.Unlock()
		},
	})

	cc, err := NewClientConn(cli, &ClientConfig{User: "root", Password: "admin123", Version: "SSH-2.0-Go-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	res := <-srvCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	sc := res.conn
	defer sc.Close()
	if sc.User() != "root" {
		t.Errorf("User = %q", sc.User())
	}
	if sc.ClientVersion() != "SSH-2.0-Go-test" {
		t.Errorf("ClientVersion = %q", sc.ClientVersion())
	}
	if !strings.HasPrefix(cc.ServerVersion(), "SSH-2.0-OpenSSH") {
		t.Errorf("ServerVersion = %q", cc.ServerVersion())
	}
	mu.Lock()
	if len(attempts) != 1 || !attempts[0].Accepted || attempts[0].Password != "admin123" {
		t.Errorf("attempts = %+v", attempts)
	}
	mu.Unlock()

	// Client runs an exec command; server echoes and reports exit status.
	done := make(chan error, 1)
	go func() {
		sess, err := sc.AcceptSession()
		if err != nil {
			done <- err
			return
		}
		var req Request
		for req = range sess.Requests {
			if req.Type == "exec" {
				break
			}
		}
		if req.Command != "uname -a" {
			done <- errors.New("wrong exec command: " + req.Command)
			return
		}
		if _, err := sess.Write([]byte("Linux svr04 4.19.0\n")); err != nil {
			done <- err
			return
		}
		if err := sess.SendExitStatus(0); err != nil {
			done <- err
			return
		}
		_ = sess.CloseWrite()
		done <- sess.Close()
	}()

	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := RequestExec(sess, "uname -a"); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "Linux svr04") {
		t.Errorf("exec output = %q", out)
	}
	if status, ok := sess.ExitStatus(); !ok || status != 0 {
		t.Errorf("exit status = %d ok=%v", status, ok)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestInteractiveShell(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	cc, err := NewClientConn(cli, &ClientConfig{User: "root", Password: "1234"})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	res := <-srvCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	sc := res.conn
	defer sc.Close()

	go func() {
		sess, err := sc.AcceptSession()
		if err != nil {
			return
		}
		sawPTY := false
		for req := range sess.Requests {
			if req.Type == "pty-req" {
				sawPTY = req.Term == "xterm" && req.Cols == 80
			}
			if req.Type == "shell" {
				break
			}
		}
		if !sawPTY {
			_, _ = sess.Write([]byte("NO PTY\n"))
			_ = sess.Close()
			return
		}
		_, _ = sess.Write([]byte("# "))
		buf := make([]byte, 256)
		n, err := sess.Read(buf)
		if err != nil {
			return
		}
		_, _ = sess.Write([]byte("echoed: " + string(buf[:n])))
		_ = sess.Close()
	}()

	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := RequestPTY(sess, "xterm", 80, 24); err != nil {
		t.Fatal(err)
	}
	if err := RequestShell(sess); err != nil {
		t.Fatal(err)
	}
	prompt := make([]byte, 2)
	if _, err := io.ReadFull(sess, prompt); err != nil {
		t.Fatal(err)
	}
	if string(prompt) != "# " {
		t.Errorf("prompt = %q", prompt)
	}
	if _, err := sess.Write([]byte("ls\n")); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "echoed: ls") {
		t.Errorf("shell output = %q", out)
	}
}

func TestAuthRejectedRootRoot(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	_, err := NewClientConn(cli, &ClientConfig{User: "root", Password: "root"})
	if !errors.Is(err, ErrAuthFailed) {
		t.Errorf("root:root err = %v, want ErrAuthFailed", err)
	}
	cli.Close()
	<-srvCh
}

func TestAuthRejectedNonRoot(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	_, err := NewClientConn(cli, &ClientConfig{User: "admin", Password: "admin"})
	if !errors.Is(err, ErrAuthFailed) {
		t.Errorf("admin err = %v, want ErrAuthFailed", err)
	}
	cli.Close()
	<-srvCh
}

func TestThreeStrikesDisconnect(t *testing.T) {
	cli, srv := pipePair(t)
	var attempts int
	var mu sync.Mutex
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: func(string, string) bool { return false },
		AuthLogCallback: func(AuthAttempt) {
			mu.Lock()
			attempts++
			mu.Unlock()
		},
	})
	cc, err := NewClientConn(cli, &ClientConfig{User: "root", SkipAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cc.TryPasswords("root", []string{"a", "b", "c", "d", "e"})
	if idx != -1 || err == nil {
		t.Fatalf("idx=%d err=%v, want disconnect", idx, err)
	}
	// The server disconnects after 3 tries; the 4th/5th never complete.
	if !errors.Is(err, ErrDisconnected) && err != ErrAuthFailed {
		// Transport may surface EOF depending on timing; accept either
		// disconnect form but not success.
		if !strings.Contains(err.Error(), "EOF") && !strings.Contains(err.Error(), "disconnect") {
			t.Errorf("unexpected error form: %v", err)
		}
	}
	res := <-srvCh
	if res.err == nil {
		t.Error("server should report handshake failure after 3 strikes")
	}
	mu.Lock()
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	mu.Unlock()
	cli.Close()
}

func TestTryPasswordsEventualSuccess(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	cc, err := NewClientConn(cli, &ClientConfig{User: "root", SkipAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cc.TryPasswords("root", []string{"root", "1234"})
	if err != nil || idx != 1 {
		t.Fatalf("idx=%d err=%v, want 1/nil", idx, err)
	}
	res := <-srvCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.conn.User() != "root" {
		t.Errorf("user = %q", res.conn.User())
	}
	cc.Close()
	res.conn.Close()
}

func TestSkipAuthScanner(t *testing.T) {
	// NO_CRED behavior: complete the SSH handshake, never authenticate.
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	cc, err := NewClientConn(cli, &ClientConfig{SkipAuth: true, Version: "SSH-2.0-Nmap-probe"})
	if err != nil {
		t.Fatal(err)
	}
	cc.Close()
	res := <-srvCh
	if res.err == nil {
		t.Error("server should fail when client leaves before auth")
	}
}

func TestHostKeyVerification(t *testing.T) {
	cli, srv := pipePair(t)
	hostKey := testHostKey(t)
	startServer(t, srv, &ServerConfig{
		HostKey:          hostKey,
		PasswordCallback: cowrieAuth,
	})
	wantPub := hostKey.Public().(ed25519.PublicKey)
	_, err := NewClientConn(cli, &ClientConfig{
		User: "root", Password: "x",
		HostKeyCallback: func(key ed25519.PublicKey) error {
			if !key.Equal(wantPub) {
				return errors.New("unexpected host key")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("verified host key rejected: %v", err)
	}
}

func TestHostKeyRejection(t *testing.T) {
	cli, srv := pipePair(t)
	startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	_, err := NewClientConn(cli, &ClientConfig{
		User: "root", Password: "x",
		HostKeyCallback: func(ed25519.PublicKey) error { return errors.New("nope") },
	})
	if err == nil {
		t.Fatal("client accepted rejected host key")
	}
}

func TestBannerDelivered(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
		Banner:           "Authorized access only",
	})
	cc, err := NewClientConn(cli, &ClientConfig{User: "root", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	cc.Close()
	res := <-srvCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	res.conn.Close()
}

func TestLargeDataTransfer(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	cc, err := NewClientConn(cli, &ClientConfig{User: "root", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	res := <-srvCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	sc := res.conn
	defer sc.Close()

	const size = 1 << 20 // crosses packet and window boundaries
	go func() {
		sess, err := sc.AcceptSession()
		if err != nil {
			return
		}
		for req := range sess.Requests {
			if req.Type == "exec" {
				break
			}
		}
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i)
		}
		_, _ = sess.Write(payload)
		_ = sess.CloseWrite()
		_ = sess.Close()
	}()

	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := RequestExec(sess, "cat bigfile"); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != size {
		t.Fatalf("got %d bytes, want %d", len(got), size)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("corruption at offset %d", i)
		}
	}
}

func TestGarbageVersionLine(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	// A scanner that sends junk instead of an SSH identification string.
	if _, err := cli.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	res := <-srvCh
	if res.err == nil {
		t.Fatal("server accepted non-SSH client")
	}
}

func TestClientTimeoutViaDeadline(t *testing.T) {
	cli, srv := pipePair(t)
	// Server that never responds: client read should hit the deadline.
	_ = srv
	cli.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	_, err := NewClientConn(cli, &ClientConfig{User: "root", Password: "x"})
	if err == nil {
		t.Fatal("handshake against silent server should fail")
	}
}

func BenchmarkHandshake(b *testing.B) {
	hostKey := testHostKey(b)
	f := netsim.NewFabric()
	l, err := f.Listen("10.0.0.1", 22)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	cfg := &ServerConfig{HostKey: hostKey, PasswordCallback: cowrieAuth}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				sc, err := NewServerConn(c, cfg)
				if err == nil {
					sc.Close()
				}
			}(c)
		}
	}()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := f.Dial("10.2.2.2", netsim.Addr{IP: "10.0.0.1", Port: 22})
		if err != nil {
			b.Fatal(err)
		}
		cc, err := NewClientConn(c, &ClientConfig{User: "root", Password: "pw"})
		if err != nil {
			b.Fatal(err)
		}
		cc.Close()
	}
}

// BenchmarkHandshakeTCP is BenchmarkHandshake over loopback TCP, where a
// Write is a segment, with both ends counted: writes/op and reads/op per
// side repeat exactly from run to run, which the ns/op beside them does
// not; TestFlightWrites pins the writes.
func BenchmarkHandshakeTCP(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	cfg := &ServerConfig{HostKey: testHostKey(b), PasswordCallback: cowrieAuth}
	var server, client ioCount
	var handlers sync.WaitGroup
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				sc, err := NewServerConn(countConn{c, &server}, cfg)
				if err != nil {
					return
				}
				// Leave after the client has: DISCONNECT is then the last
				// Write, and the count does not depend on who closed first.
				//lint:ignore error-discard waiting for the client's hang-up, which is the error
				_, _ = sc.AcceptSession()
				sc.Close()
			}()
		}
	}()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		cc, err := NewClientConn(countConn{c, &client}, &ClientConfig{User: "root", Password: "pw"})
		if err != nil {
			b.Fatal(err)
		}
		cc.Close()
	}
	b.StopTimer()
	ln.Close()
	<-accepting
	handlers.Wait()
	n := float64(b.N)
	b.ReportMetric(float64(server.writes.Load())/n, "server-writes/op")
	b.ReportMetric(float64(client.writes.Load())/n, "client-writes/op")
	b.ReportMetric(float64(server.reads.Load())/n, "server-reads/op")
	b.ReportMetric(float64(client.reads.Load())/n, "client-reads/op")
}

func BenchmarkEncryptedThroughput(b *testing.B) {
	cli, srv := pipePair(b)
	srvCh := startServer(b, srv, &ServerConfig{HostKey: testHostKey(b), PasswordCallback: cowrieAuth})
	cc, err := NewClientConn(cli, &ClientConfig{User: "root", Password: "pw"})
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()
	res := <-srvCh
	if res.err != nil {
		b.Fatal(res.err)
	}
	defer res.conn.Close()

	ready := make(chan *Channel, 1)
	go func() {
		sess, err := res.conn.AcceptSession()
		if err != nil {
			return
		}
		for req := range sess.Requests {
			if req.Type == "exec" {
				break
			}
		}
		ready <- sess
	}()
	sess, err := cc.OpenSession()
	if err != nil {
		b.Fatal(err)
	}
	if err := RequestExec(sess, "sink"); err != nil {
		b.Fatal(err)
	}
	srvSess := <-ready
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := srvSess.Read(buf); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 32<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDHGroup14Handshake exercises the diffie-hellman-group14-sha256 kex
// path end to end (ed25519-signed).
func TestDHGroup14Handshake(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	cc, err := NewClientConn(cli, &ClientConfig{
		User: "root", Password: "pw",
		KexAlgos: []string{"diffie-hellman-group14-sha256"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	res := <-srvCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.conn.Close()
	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		s, err := res.conn.AcceptSession()
		if err != nil {
			return
		}
		for req := range s.Requests {
			if req.Type == "exec" {
				break
			}
		}
		_, _ = s.Write([]byte("dh ok"))
		_ = s.CloseWrite()
		_ = s.Close()
	}()
	if err := RequestExec(sess, "probe"); err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(sess)
	if string(out) != "dh ok" {
		t.Errorf("out = %q", out)
	}
}

// TestRSAHostKeyHandshake exercises the rsa-sha2-256 host key path over
// both kex algorithms.
func TestRSAHostKeyHandshake(t *testing.T) {
	rsaKey, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, kex := range []string{"curve25519-sha256", "diffie-hellman-group14-sha256"} {
		kex := kex
		t.Run(kex, func(t *testing.T) {
			cli, srv := pipePair(t)
			srvCh := startServer(t, srv, &ServerConfig{
				HostKey:          testHostKey(t),
				RSAHostKey:       rsaKey,
				PasswordCallback: cowrieAuth,
			})
			sawAlgo := ""
			cc, err := NewClientConn(cli, &ClientConfig{
				User: "root", Password: "pw",
				KexAlgos:     []string{kex},
				HostKeyAlgos: []string{"rsa-sha2-256"},
				RawHostKeyCallback: func(algo string, blob []byte) error {
					sawAlgo = algo
					if _, err := parseRSAKeyBlob(blob); err != nil {
						return err
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			cc.Close()
			if sawAlgo != "rsa-sha2-256" {
				t.Errorf("negotiated host key algo = %q", sawAlgo)
			}
			res := <-srvCh
			if res.err != nil {
				t.Fatal(res.err)
			}
			res.conn.Close()
		})
	}
}

// TestRSAOnlyClientAgainstEd25519OnlyServer must fail negotiation.
func TestHostKeyNegotiationMismatch(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := startServer(t, srv, &ServerConfig{
		HostKey:          testHostKey(t),
		PasswordCallback: cowrieAuth,
	})
	_, err := NewClientConn(cli, &ClientConfig{
		User: "root", Password: "pw",
		HostKeyAlgos: []string{"rsa-sha2-256"},
	})
	if err == nil {
		t.Fatal("rsa-only client should fail against ed25519-only server")
	}
	cli.Close()
	<-srvCh
}
