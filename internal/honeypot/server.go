package honeypot

import (
	"errors"
	"net"
	"sync"
	"time"
)

// Server runs the accept loops of a set of honeypot listeners and
// tracks every connection it hands out until its session ends. The zero
// value is ready to use; Serve must not be called after Close.
type Server struct {
	mu     sync.Mutex
	lns    []net.Listener        // listeners, until Close
	conns  map[net.Conn]struct{} // connections in flight
	closed bool                  // Close has run
	wg     sync.WaitGroup        // accept loops and session handlers
}

// Serve accepts connections on ln until ln is closed, running handle on
// its own goroutine for each. A connection accepted after Close is
// closed at once and still handed to handle, which records the abort.
func (s *Server) Serve(ln net.Listener, handle func(net.Conn)) {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = map[net.Conn]struct{}{}
	}
	s.lns = append(s.lns, ln)
	s.wg.Add(1)
	s.mu.Unlock()
	go s.accept(ln, handle)
}

// accept is the one accept loop. A closed listener (net.ErrClosed, which
// netsim.ErrClosed wraps) ends it. Any other error, such as EMFILE under
// a connection flood, backs off 5 ms, doubling to 1 s, and retries: the
// shape net/http's server uses.
func (s *Server) accept(ln net.Listener, handle func(net.Conn)) {
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
		// A connection accepted after Close is closed here, so Close's
		// sweep cannot miss it.
		closed := s.closed
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		if closed {
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

// Close stops accepting on every listener, closes the connections in
// flight and waits for the accept loops and for every session handler
// to record its abort. It returns the first listener close error.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	var first error
	for _, ln := range s.lns {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.lns = nil
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return first
}
