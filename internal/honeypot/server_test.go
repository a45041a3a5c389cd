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
	srv.Serve(ln, func(c net.Conn) {
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
	if n := srv.Open(); n != 0 {
		t.Errorf("Open = %d after Close, want 0", n)
	}
}

// TestServerDrainBounded: clients that connect and go silent sit in
// the pot's pre-auth read, which an hour-long timeout never ends. Close
// cuts both sessions and returns with both recorded, and after it no
// dial is accepted.
func TestServerDrainBounded(t *testing.T) {
	rig := newRig(t, Config{ID: 0, PreAuthTimeout: time.Hour})
	rig.expect(2)
	for _, a := range []netsim.Addr{rig.sshAddr, rig.telAddr} {
		c, err := rig.fabric.Dial("203.0.113.9", a)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() // never written, never read, never closed before Close
	}
	waitUntil(t, "both connections to be tracked", func() bool { return rig.srv.Open() == 2 })

	if err := rig.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := rig.srv.Open(); n != 0 {
		t.Errorf("Open = %d after Close, want 0", n)
	}
	if c, err := rig.fabric.Dial("203.0.113.9", rig.sshAddr); err == nil {
		c.Close()
		t.Error("the pot still accepts after Close")
	}
	recs := rig.wait(t)
	protos := map[Protocol]bool{}
	for _, r := range recs {
		protos[r.Protocol] = true
	}
	if len(recs) != 2 || !protos[SSH] || !protos[Telnet] {
		t.Errorf("records after Close = %+v, want one SSH and one Telnet", recs)
	}
}
