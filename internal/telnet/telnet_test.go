package telnet

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"honeyfarm/internal/netsim"
)

func pipePair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	f := netsim.NewFabric()
	l, err := f.Listen("10.0.0.1", 23)
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
	cli, err := f.Dial("10.3.3.3", netsim.Addr{IP: "10.0.0.1", Port: 23})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return cli, srv
}

func cowrieAuth(user, pass string) bool { return user == "root" && pass != "root" }

func TestLoginSuccess(t *testing.T) {
	cli, srv := pipePair(t)
	var attempts []AuthAttempt
	var mu sync.Mutex
	type result struct {
		sess *ServerSession
		err  error
	}
	srvCh := make(chan result, 1)
	go func() {
		sess, err := Handshake(srv, &ServerConfig{
			Banner: "svr04 login",
			Auth:   cowrieAuth,
			AuthLog: func(a AuthAttempt) {
				mu.Lock()
				attempts = append(attempts, a)
				mu.Unlock()
			},
		})
		srvCh <- result{sess, err}
	}()

	c := NewConn(cli, false)
	ok, err := ClientLogin(c, "root", "1234")
	if err != nil || !ok {
		t.Fatalf("login ok=%v err=%v", ok, err)
	}
	res := <-srvCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.sess.User != "root" {
		t.Errorf("user = %q", res.sess.User)
	}
	mu.Lock()
	if len(attempts) != 1 || !attempts[0].Accepted || attempts[0].Password != "1234" {
		t.Errorf("attempts = %+v", attempts)
	}
	mu.Unlock()

	// Shell data flows through the telnet conn after login.
	go func() {
		line, err := res.sess.Conn.ReadLine()
		if err != nil {
			return
		}
		_ = res.sess.Conn.WriteString("you said: " + line + "\r\n")
		_ = res.sess.Conn.Flush()
	}()
	if err := c.WriteString("uname -a\r\n"); err != nil {
		t.Fatal(err)
	}
	line, err := c.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	// Skip possible empty line from login CRLF.
	for line == "" {
		line, err = c.ReadLine()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(line, "you said: uname -a") {
		t.Errorf("line = %q", line)
	}
}

func TestLoginRetryThenSuccess(t *testing.T) {
	cli, srv := pipePair(t)
	srvCh := make(chan error, 1)
	go func() {
		sess, err := Handshake(srv, &ServerConfig{Auth: cowrieAuth})
		if err == nil && sess.User != "root" {
			err = errors.New("wrong user")
		}
		srvCh <- err
	}()
	c := NewConn(cli, false)
	ok, err := ClientLogin(c, "root", "root") // rejected by policy
	if err != nil || ok {
		t.Fatalf("first login ok=%v err=%v, want rejection", ok, err)
	}
	ok, err = ClientLogin(c, "root", "admin")
	if err != nil || !ok {
		t.Fatalf("second login ok=%v err=%v", ok, err)
	}
	if err := <-srvCh; err != nil {
		t.Fatal(err)
	}
}

func TestThreeStrikes(t *testing.T) {
	cli, srv := pipePair(t)
	var n int
	var mu sync.Mutex
	srvCh := make(chan error, 1)
	go func() {
		_, err := Handshake(srv, &ServerConfig{
			Auth: func(string, string) bool { return false },
			AuthLog: func(AuthAttempt) {
				mu.Lock()
				n++
				mu.Unlock()
			},
		})
		srvCh <- err
	}()
	c := NewConn(cli, false)
	for i := 0; i < 3; i++ {
		ok, err := ClientLogin(c, "admin", "admin")
		if err != nil {
			break
		}
		if ok {
			t.Fatal("login unexpectedly accepted")
		}
	}
	err := <-srvCh
	if !errors.Is(err, ErrTooManyTries) {
		t.Errorf("err = %v, want ErrTooManyTries", err)
	}
	mu.Lock()
	if n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
	mu.Unlock()
	cli.Close()
}

func TestIACEscaping(t *testing.T) {
	cli, srv := pipePair(t)
	sc := NewConn(srv, true)
	cc := NewConn(cli, false)
	payload := []byte{1, 2, cmdIAC, 3, cmdIAC, cmdIAC}
	go func() {
		_, _ = sc.Write(payload)
		_ = sc.Flush()
	}()
	got := make([]byte, len(payload))
	for i := range got {
		b, err := cc.ReadByte()
		if err != nil {
			t.Errorf("ReadByte: %v", err)
			return
		}
		got[i] = b
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Errorf("byte %d = %#x, want %#x", i, got[i], payload[i])
		}
	}
}

func TestReadLineVariants(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want string
	}{
		{"hello\r\n", "hello"},
		{"hello\n", "hello"},
		{"hello\r\x00", "hello"},
		{"hel\x7flo\r\n", "helo"}, // backspace edit: "hel" <DEL> "lo" → "helo"? no: deletes 'l'
	} {
		cli, srv := pipePair(t)
		go func() { _, _ = srv.Write([]byte(tc.raw)) }()
		c := NewConn(cli, false)
		got, err := c.ReadLine()
		if err != nil {
			t.Fatalf("ReadLine(%q): %v", tc.raw, err)
		}
		if tc.raw == "hel\x7flo\r\n" {
			if got != "helo" {
				t.Errorf("backspace edit = %q, want %q", got, "helo")
			}
			continue
		}
		if got != tc.want {
			t.Errorf("ReadLine(%q) = %q, want %q", tc.raw, got, tc.want)
		}
	}
}

func TestNegotiationConsumed(t *testing.T) {
	cli, srv := pipePair(t)
	go func() {
		// Client sends negotiation interleaved with data.
		_, _ = srv.Write([]byte{cmdIAC, cmdDO, optEcho, 'h', 'i', cmdIAC, cmdWILL, 31, '\r', '\n'})
	}()
	c := NewConn(cli, true)
	line, err := c.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	if line != "hi" {
		t.Errorf("line = %q, want hi", line)
	}
}

func TestSubnegotiationSkipped(t *testing.T) {
	cli, srv := pipePair(t)
	go func() {
		_, _ = srv.Write([]byte{cmdIAC, cmdSB, 31, 0, 80, 0, 24, cmdIAC, cmdSE, 'x', '\n'})
	}()
	c := NewConn(cli, false)
	line, err := c.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	if line != "x" {
		t.Errorf("line = %q, want x", line)
	}
}

func TestHandshakeRequiresAuth(t *testing.T) {
	cli, srv := pipePair(t)
	defer cli.Close()
	if _, err := Handshake(srv, &ServerConfig{}); err == nil {
		t.Fatal("Handshake without Auth should fail")
	}
}

func BenchmarkLoginFlow(b *testing.B) {
	f := netsim.NewFabric()
	l, err := f.Listen("10.0.0.1", 23)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	cfg := &ServerConfig{Auth: cowrieAuth}
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				_, _ = Handshake(nc, cfg)
			}(nc)
		}
	}()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nc, err := f.Dial("10.3.3.3", netsim.Addr{IP: "10.0.0.1", Port: 23})
		if err != nil {
			b.Fatal(err)
		}
		c := NewConn(nc, false)
		if ok, err := ClientLogin(c, "root", "1234"); err != nil || !ok {
			b.Fatalf("login ok=%v err=%v", ok, err)
		}
		nc.Close()
	}
}

// ioCount tallies the Read and Write calls of one side's conns.
type ioCount struct{ reads, writes atomic.Int64 }

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

// BenchmarkLoginFlowTCP is BenchmarkLoginFlow over loopback TCP with both
// ends counted, the same way sshwire.BenchmarkHandshakeTCP counts;
// TestFlightWrites holds the writes to loginServerWrites /
// loginClientWrites.
func BenchmarkLoginFlowTCP(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	cfg := &ServerConfig{Auth: cowrieAuth}
	var server, client ioCount
	var handlers sync.WaitGroup
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				defer nc.Close()
				_, _ = Handshake(countConn{nc, &server}, cfg)
			}()
		}
	}()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		c := NewConn(countConn{nc, &client}, false)
		if ok, err := ClientLogin(c, "root", "1234"); err != nil || !ok {
			b.Fatalf("login ok=%v err=%v", ok, err)
		}
		nc.Close()
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

// Property: arbitrary binary payloads survive IAC escaping end to end.
func TestQuickIACEscapingRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		cli, srv := pipePairQuick()
		defer cli.Close()
		defer srv.Close()
		sc := NewConn(srv, true)
		cc := NewConn(cli, false)
		go func() {
			_, _ = sc.Write(payload)
			_ = sc.Flush()
		}()
		got := make([]byte, len(payload))
		for i := range got {
			b, err := cc.ReadByte()
			if err != nil {
				return false
			}
			got[i] = b
		}
		for i := range payload {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// pipePairQuick is pipePair without the testing.T plumbing.
func pipePairQuick() (client, server net.Conn) {
	f := netsim.NewFabric()
	l, _ := f.Listen("10.0.0.1", 23)
	defer l.Close()
	var srv net.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, _ = l.Accept()
	}()
	cli, _ := f.Dial("10.3.3.3", netsim.Addr{IP: "10.0.0.1", Port: 23})
	wg.Wait()
	return cli, srv
}

func TestClientLoginMarkerNeverSeen(t *testing.T) {
	cli, srv := pipePair(t)
	go func() {
		// A server that never prompts: spews data without "login:",
		// comfortably past waitFor's 4 KiB give-up bound.
		for i := 0; i < 2000; i++ {
			if _, err := srv.Write([]byte("noise ")); err != nil {
				return
			}
		}
	}()
	c := NewConn(cli, false)
	if _, err := ClientLogin(c, "root", "x"); err == nil {
		t.Fatal("missing prompt should error")
	}
	cli.Close()
}

func TestReadLineLengthBound(t *testing.T) {
	cli, srv := pipePair(t)
	go func() {
		long := make([]byte, 8192)
		for i := range long {
			long[i] = 'a'
		}
		_, _ = srv.Write(long)
	}()
	c := NewConn(cli, false)
	line, err := c.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	if len(line) > 4096 {
		t.Errorf("line length %d exceeds bound", len(line))
	}
}

func TestReadLineEOFWithPartial(t *testing.T) {
	cli, srv := pipePair(t)
	go func() {
		_, _ = srv.Write([]byte("partial-line"))
		srv.Close()
	}()
	c := NewConn(cli, false)
	line, err := c.ReadLine()
	if err != nil || line != "partial-line" {
		t.Errorf("partial line = %q err=%v", line, err)
	}
}

func TestServerSessionBanner(t *testing.T) {
	cli, srv := pipePair(t)
	go func() {
		_, _ = Handshake(srv, &ServerConfig{Banner: "Debian GNU/Linux 10", Auth: cowrieAuth})
	}()
	c := NewConn(cli, false)
	var seen strings.Builder
	for seen.Len() < 256 {
		b, err := c.ReadByte()
		if err != nil {
			t.Fatal(err)
		}
		seen.WriteByte(b)
		if strings.Contains(seen.String(), "Debian GNU/Linux 10") {
			cli.Close()
			return
		}
	}
	t.Fatalf("banner not seen: %q", seen.String())
}
