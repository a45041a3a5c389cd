package netsim

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// hookFabric builds a fabric with one listener and an installed hook.
func hookFabric(t *testing.T, hook FaultHook) (*Fabric, *Listener) {
	t.Helper()
	f := NewFabric()
	f.SetFaultHook(hook)
	l, err := f.Listen("10.0.0.1", 22)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return f, l
}

func TestFaultHookRefuse(t *testing.T) {
	f, _ := hookFabric(t, func(src string, dst Addr) ConnFault {
		return ConnFault{Refuse: true}
	})
	if _, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22}); !errors.Is(err, ErrConnectionRefused) {
		t.Fatalf("dial = %v, want refused", err)
	}
}

func TestFaultHookReceivesEndpoints(t *testing.T) {
	var gotSrc string
	var gotDst Addr
	f, l := hookFabric(t, func(src string, dst Addr) ConnFault {
		gotSrc, gotDst = src, dst
		return ConnFault{}
	})
	go func() { _, _ = l.Accept() }()
	c, err := f.Dial("192.0.2.7", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if gotSrc != "192.0.2.7" || gotDst.IP != "10.0.0.1" || gotDst.Port != 22 {
		t.Errorf("hook saw %s -> %s", gotSrc, gotDst)
	}
}

// TestFaultReset checks the byte-budget reset: once the budget is spent
// both sides observe ErrReset and buffered data is discarded.
func TestFaultReset(t *testing.T) {
	f, l := hookFabric(t, func(src string, dst Addr) ConnFault {
		return ConnFault{ResetAfter: 10}
	})
	srvCh := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			srvCh <- c
		} else {
			close(srvCh)
		}
	}()
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-srvCh
	if srv == nil {
		t.Fatal("accept failed")
	}
	defer srv.Close()

	if _, err := c.Write(make([]byte, 6)); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	if _, err := c.Write(make([]byte, 6)); !errors.Is(err, ErrReset) {
		t.Fatalf("budget-exhausting write = %v, want ErrReset", err)
	}
	// Both sides are dead now.
	if _, err := srv.Read(make([]byte, 16)); !errors.Is(err, ErrReset) {
		t.Errorf("peer read after reset = %v, want ErrReset", err)
	}
	if _, err := srv.Write([]byte("x")); !errors.Is(err, ErrReset) {
		t.Errorf("peer write after reset = %v, want ErrReset", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrReset) {
		t.Errorf("read after reset = %v, want ErrReset", err)
	}
}

// TestFaultResetUnblocksReader: a reader blocked on an empty buffer must
// wake with ErrReset when the peer trips the budget.
func TestFaultResetUnblocksReader(t *testing.T) {
	f, l := hookFabric(t, func(src string, dst Addr) ConnFault {
		return ConnFault{ResetAfter: 4}
	})
	srvCh := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		srvCh <- c
	}()
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-srvCh
	defer srv.Close()

	readErr := make(chan error, 1)
	go func() {
		_, err := srv.Read(make([]byte, 1))
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_, _ = c.Write(make([]byte, 8)) // trips the 4-byte budget
	select {
	case err := <-readErr:
		if !errors.Is(err, ErrReset) {
			t.Errorf("blocked read woke with %v, want ErrReset", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by reset")
	}
}

// TestFaultStall: writes succeed but nothing is delivered; the reader
// runs into its deadline exactly as with a real dead-air connection.
func TestFaultStall(t *testing.T) {
	f, l := hookFabric(t, func(src string, dst Addr) ConnFault {
		return ConnFault{Stall: true}
	})
	srvCh := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		srvCh <- c
	}()
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-srvCh
	defer srv.Close()

	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatalf("stalled write = %v, want success", err)
	}
	if _, err := srv.Write([]byte("banner")); err != nil {
		t.Fatalf("stalled server write = %v, want success", err)
	}
	if err := srv.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err = srv.Read(make([]byte, 8))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stalled read = %v, want timeout", err)
	}
}

func TestFaultJitterDelaysDial(t *testing.T) {
	f, l := hookFabric(t, func(src string, dst Addr) ConnFault {
		return ConnFault{Jitter: 30 * time.Millisecond}
	})
	go func() { _, _ = l.Accept() }()
	start := time.Now()
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("jittered dial returned in %v, want ≥30ms", elapsed)
	}
}

// TestListenerCloseDrainsQueue: connections never Accepted must be
// closed when the listener goes away, so clients get EOF, not dead air.
func TestListenerCloseDrainsQueue(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen("10.0.0.1", 22)
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The conn sits in the accept queue; nobody ever Accepts it.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		readErr <- err
	}()
	select {
	case err := <-readErr:
		if err != io.EOF {
			t.Errorf("read on drained conn = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued conn not closed by listener drain")
	}
}

func TestDialAfterListenerCloseRefused(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen("10.0.0.1", 22)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	if _, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22}); !errors.Is(err, ErrConnectionRefused) {
		t.Errorf("dial after close = %v, want refused", err)
	}
}

// --- deadline edge cases ---

// TestDeadlineAlreadyPast: a deadline in the past fails the read
// immediately instead of blocking.
func TestDeadlineAlreadyPast(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	go func() { _, _ = l.Accept() }()
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read with past deadline = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("past deadline blocked for %v", elapsed)
	}
}

// TestClearDeadlineMidBlock: clearing the deadline while a read is
// blocked must not fire a spurious timeout; the read completes when
// data finally arrives.
func TestClearDeadlineMidBlock(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	srvCh := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		srvCh <- c
	}()
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-srvCh
	defer srv.Close()

	if err := c.SetReadDeadline(time.Now().Add(40 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	type result struct {
		n   int
		err error
	}
	got := make(chan result, 1)
	go func() {
		buf := make([]byte, 4)
		n, err := c.Read(buf)
		got <- result{n, err}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Write well after the original deadline would have fired.
	time.Sleep(60 * time.Millisecond)
	if _, err := srv.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil || r.n != 2 {
			t.Errorf("read after clearing deadline = (%d, %v), want (2, nil)", r.n, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read never completed after deadline cleared")
	}
}

// TestCloseRacesBlockedRead: hammer Close against a blocked Read; under
// -race this doubles as a data-race probe on the pipe internals.
func TestCloseRacesBlockedRead(t *testing.T) {
	for i := 0; i < 50; i++ {
		f := NewFabric()
		l, _ := f.Listen("10.0.0.1", 22)
		srvCh := make(chan net.Conn, 1)
		go func() {
			c, _ := l.Accept()
			srvCh <- c
		}()
		c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
		if err != nil {
			t.Fatal(err)
		}
		srv := <-srvCh

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, err := srv.Read(make([]byte, 1))
			if err != io.EOF && !errors.Is(err, ErrClosed) {
				t.Errorf("iter %d: racing read = %v, want EOF/closed", i, err)
			}
		}()
		go func() {
			defer wg.Done()
			_ = c.Close()
		}()
		wg.Wait()
		_ = srv.Close()
		_ = l.Close()
	}
}
