package honeypot

import (
	"errors"
	"net"
	"sync"
	"time"
)

// DefaultDrainTimeout bounds a server's graceful drain.
const DefaultDrainTimeout = 5 * time.Second

// Server runs the accept loops of a set of honeypots and tracks every
// connection it hands out until its session ends. Listeners and
// connections are grouped by pot, so one pot can be severed while the
// rest serve on. The zero value is ready to use; Serve must not be
// called after Close.
type Server struct {
	mu    sync.Mutex
	lns   map[net.Listener]int // listener still accepting -> pot
	conns map[net.Conn]int     // connection in flight -> pot
	wg    sync.WaitGroup       // accept loops and session handlers
}

// Serve accepts connections on ln for pot until ln is closed, running
// handle on its own goroutine for each. A connection accepted after its
// pot was severed, or after Close, is closed at once and still handed
// to handle, which records the abort.
func (s *Server) Serve(pot int, ln net.Listener, handle func(net.Conn)) {
	s.mu.Lock()
	if s.lns == nil {
		s.lns, s.conns = map[net.Listener]int{}, map[net.Conn]int{}
	}
	s.lns[ln] = pot
	s.wg.Add(1)
	s.mu.Unlock()
	go s.accept(pot, ln, handle)
}

// accept is the one accept loop. A closed listener (net.ErrClosed, which
// netsim.ErrClosed wraps) ends it. Any other error, such as EMFILE under
// a connection flood, backs off 5 ms, doubling to 1 s, and retries: the
// shape net/http's server uses.
func (s *Server) accept(pot int, ln net.Listener, handle func(net.Conn)) {
	defer s.wg.Done()
	var delay time.Duration
	for {
		c, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			time.Sleep(delay)
			continue
		}
		delay = 0
		s.mu.Lock()
		// Sever and Close take ln out of s.lns before they sweep
		// s.conns, so a connection the sweep missed is closed here.
		_, live := s.lns[ln]
		s.conns[c] = pot
		s.wg.Add(1)
		s.mu.Unlock()
		if !live {
			_ = c.Close()
		}
		go func() {
			defer s.wg.Done()
			handle(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Open returns the number of connections whose sessions are in flight.
func (s *Server) Open() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Sever takes pot down: its listeners and live connections are closed.
// The pot can be served again afterwards.
func (s *Server) Sever(pot int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ln, p := range s.lns {
		if p == pot {
			_ = ln.Close()
			delete(s.lns, ln)
		}
	}
	for c, p := range s.conns {
		if p == pot {
			_ = c.Close()
		}
	}
}

// Close stops accepting on every pot and returns the first listener
// close error. Sessions in flight carry on; Drain waits for them.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for ln := range s.lns {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.lns, ln)
	}
	return first
}

// Drain waits up to bound for the accept loops and the sessions in
// flight to finish. At the bound, or at once when bound ≤ 0, it calls
// force (when non-nil) before it closes the connections left, then waits
// for their handlers to record them. Call it after Close.
func (s *Server) Drain(bound time.Duration, force func()) {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if bound > 0 {
		select {
		case <-done:
			return
		case <-time.After(bound):
		}
	}
	if force != nil {
		force()
	}
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	<-done
}
