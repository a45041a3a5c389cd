package netsim

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDialListenRoundTrip(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen("10.0.0.1", 22)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		if string(buf) != "hello" {
			done <- errors.New("payload mismatch")
			return
		}
		_, err = c.Write([]byte("world"))
		done <- err
	}()

	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Errorf("reply = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnAddrs(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	go func() { _, _ = l.Accept() }()
	c, err := f.Dial("192.0.2.55", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.RemoteAddr().String() != "10.0.0.1:22" {
		t.Errorf("remote = %s", c.RemoteAddr())
	}
	local := c.LocalAddr().(Addr)
	if local.IP != "192.0.2.55" {
		t.Errorf("local = %s", local)
	}
	if c.LocalAddr().Network() != "netsim" {
		t.Error("network name wrong")
	}
}

func TestDialRefused(t *testing.T) {
	f := NewFabric()
	if _, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 23}); !errors.Is(err, ErrConnectionRefused) {
		t.Errorf("err = %v, want refused", err)
	}
}

func TestListenConflict(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen("10.0.0.1", 22)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen("10.0.0.1", 22); !errors.Is(err, ErrAddressInUse) {
		t.Errorf("duplicate listen err = %v", err)
	}
	l.Close()
	// After close the address is free again.
	if _, err := f.Listen("10.0.0.1", 22); err != nil {
		t.Errorf("re-listen after close: %v", err)
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	var srv net.Conn
	accepted := make(chan struct{})
	go func() {
		srv, _ = l.Accept()
		close(accepted)
	}()
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	<-accepted

	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := srv.Read(buf)
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-readErr:
		if err != io.EOF {
			t.Errorf("read after close = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by close")
	}
}

func TestReadDeadline(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	go func() { _, _ = l.Accept() }()
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 1)
	_, err = c.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout net.Error", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadline took %v", elapsed)
	}
	// Clearing the deadline allows reads again.
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptAfterListenerClose(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	go func() {
		time.Sleep(10 * time.Millisecond)
		l.Close()
	}()
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("Accept after close = %v", err)
	}
}

func TestConcurrentConnections(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()

	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4)
				if _, err := io.ReadFull(c, buf); err == nil {
					_, _ = c.Write(buf)
				}
			}(c)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.Write([]byte("ping")); err != nil {
				errs <- err
				return
			}
			buf := make([]byte, 4)
			if _, err := io.ReadFull(c, buf); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWriteAfterClose(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	go func() { _, _ = l.Accept() }()
	c, _ := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	c.Close()
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close = %v", err)
	}
}

func BenchmarkFabricRoundTrip(b *testing.B) {
	f := NewFabric()
	l, _ := f.Listen("10.0.0.1", 22)
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 64)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	c, err := f.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 22})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: arbitrary chunked writes arrive intact and in order.
func TestQuickDataIntegrity(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fab := NewFabric()
		l, err := fab.Listen("10.0.0.1", 9)
		if err != nil {
			return false
		}
		defer l.Close()
		done := make(chan []byte, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				done <- nil
				return
			}
			defer c.Close()
			var got []byte
			buf := make([]byte, 256)
			for {
				n, err := c.Read(buf)
				got = append(got, buf[:n]...)
				if err != nil {
					break
				}
			}
			done <- got
		}()
		c, err := fab.Dial("10.9.9.9", Addr{IP: "10.0.0.1", Port: 9})
		if err != nil {
			return false
		}
		var want []byte
		for _, ch := range chunks {
			want = append(want, ch...)
			if _, err := c.Write(ch); err != nil {
				return false
			}
		}
		c.Close()
		got := <-done
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
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
