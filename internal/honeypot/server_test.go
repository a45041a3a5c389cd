package honeypot

import (
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"honeyfarm/internal/netsim"
)

// chanListener hands out whatever the test sends on next, then
// net.ErrClosed once it is closed.
type chanListener struct {
	next chan net.Conn
	errs chan error
	done chan struct{}
	once sync.Once
}

func newChanListener() *chanListener {
	return &chanListener{next: make(chan net.Conn), errs: make(chan error), done: make(chan struct{})}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.next:
		return c, nil
	case err := <-l.errs:
		return nil, err
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return &net.TCPAddr{} }

// waitUntil polls cond until it holds or two seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerRetriesAcceptError: an Accept error that is not a closed
// listener (EMFILE under a connection flood) must not end the loop; the
// next connection is still served and counted.
func TestServerRetriesAcceptError(t *testing.T) {
	ln := newChanListener()
	var srv Server
	started := make(chan struct{})
	srv.Serve(0, ln, func(c net.Conn) {
		close(started)
		_, _ = io.Copy(io.Discard, c)
	})

	ln.errs <- &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	server, client := net.Pipe()
	defer client.Close()
	select {
	case ln.next <- server:
	case <-time.After(2 * time.Second):
		t.Fatal("accept loop ended on a non-closed Accept error")
	}
	<-started
	if n := srv.Open(); n != 1 {
		t.Errorf("Open = %d while the session runs, want 1", n)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Drain(0, nil)
	if n := srv.Open(); n != 0 {
		t.Errorf("Open = %d after Drain, want 0", n)
	}
}

// TestServerSeverAndDrain: Sever closes only its own pot's listeners
// and connections; Drain with a stalled peer calls force before it
// closes the connections left, and returns within the bound.
func TestServerSeverAndDrain(t *testing.T) {
	fabric := netsim.NewFabric()
	addrs := []netsim.Addr{{IP: "10.0.0.1", Port: 22}, {IP: "10.0.0.2", Port: 22}}
	var srv Server
	ended := make(chan int, len(addrs))
	for pot, a := range addrs {
		ln, err := fabric.Listen(a.IP, a.Port)
		if err != nil {
			t.Fatal(err)
		}
		pot := pot
		srv.Serve(pot, ln, func(c net.Conn) {
			// A stalled peer: nothing arrives until the server closes c.
			_, _ = io.Copy(io.Discard, c)
			ended <- pot
		})
	}
	for _, a := range addrs {
		c, err := fabric.Dial("203.0.113.9", a)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitUntil(t, "both connections to be tracked", func() bool { return srv.Open() == 2 })

	srv.Sever(0)
	select {
	case pot := <-ended:
		if pot != 0 {
			t.Fatalf("Sever(0) ended pot %d's session", pot)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Sever(0) left pot 0's session running")
	}
	waitUntil(t, "pot 0's session to be untracked", func() bool { return srv.Open() == 1 })
	if c, err := fabric.Dial("203.0.113.9", addrs[0]); err == nil {
		c.Close()
		t.Error("pot 0 still accepts after Sever")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	const bound = 100 * time.Millisecond
	openAtForce := -1
	start := time.Now()
	srv.Drain(bound, func() { openAtForce = srv.Open() })
	elapsed := time.Since(start)
	if openAtForce != 1 {
		t.Errorf("force saw %d open connections, want 1: it must run before the stalled one is closed", openAtForce)
	}
	if elapsed < bound || elapsed > bound+2*time.Second {
		t.Errorf("Drain took %v, want about %v", elapsed, bound)
	}
	if pot := <-ended; pot != 1 {
		t.Errorf("Drain ended pot %d's session, want pot 1", pot)
	}
	if n := srv.Open(); n != 0 {
		t.Errorf("Open = %d after Drain, want 0", n)
	}
}
