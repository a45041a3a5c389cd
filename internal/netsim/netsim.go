// Package netsim provides an in-memory network fabric with net.Conn /
// net.Listener semantics: addressable endpoints, buffered full-duplex
// pipes, and deadline support. A client dials an in-process honeypot
// from any source address through this fabric using the exact same
// SSH/Telnet protocol code that runs over real TCP, so wire-level tests
// and examples need no sockets.
package netsim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Errors returned by the fabric.
var (
	ErrAddressInUse      = errors.New("netsim: address already in use")
	ErrConnectionRefused = errors.New("netsim: connection refused")
	ErrClosed            = fmt.Errorf("netsim: %w", net.ErrClosed) // one errors.Is check serves both fabrics
	ErrTimeout           = errors.New("netsim: i/o timeout")
)

// Addr is a network address inside the fabric.
type Addr struct {
	IP   string
	Port int
}

// Network implements net.Addr.
func (a Addr) Network() string { return "netsim" }

// String implements net.Addr.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// Fabric is an in-memory Internet. The zero value is not usable; create
// one with NewFabric. All methods are safe for concurrent use.
type Fabric struct {
	mu        sync.Mutex
	listeners map[Addr]*Listener
	nextPort  int
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		listeners: make(map[Addr]*Listener),
		nextPort:  40000,
	}
}

// Listener accepts fabric connections on one address.
type Listener struct {
	fabric *Fabric
	addr   Addr
	queue  chan *Conn
	done   chan struct{}
	once   sync.Once
	qmu    sync.Mutex
	closed bool
}

// Listen binds an address. Port 0 is not supported; honeypots bind 22/23.
func (f *Fabric) Listen(ip string, port int) (*Listener, error) {
	addr := Addr{IP: ip, Port: port}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddressInUse, addr)
	}
	l := &Listener{
		fabric: f,
		addr:   addr,
		queue:  make(chan *Conn, 128),
		done:   make(chan struct{}),
	}
	f.listeners[addr] = l
	return l, nil
}

// Accept waits for the next incoming connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.queue:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close unbinds the listener. Connections still sitting in the accept
// queue are closed so their clients see EOF instead of dead air.
func (l *Listener) Close() error {
	l.once.Do(func() {
		l.fabric.mu.Lock()
		delete(l.fabric.listeners, l.addr)
		l.fabric.mu.Unlock()
		l.qmu.Lock()
		l.closed = true
		l.qmu.Unlock()
		close(l.done)
		for {
			select {
			case c := <-l.queue:
				_ = c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.addr }

// Dial connects from srcIP to dst. It fails with ErrConnectionRefused
// when nothing listens on dst.
func (f *Fabric) Dial(srcIP string, dst Addr) (net.Conn, error) {
	f.mu.Lock()
	l, ok := f.listeners[dst]
	src := Addr{IP: srcIP, Port: f.nextPort}
	f.nextPort++
	if f.nextPort > 65000 {
		f.nextPort = 40000
	}
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, dst)
	}
	clientSide, serverSide := newConnPair(src, dst)
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, dst)
	}
	select {
	case l.queue <- serverSide:
		l.qmu.Unlock()
		return clientSide, nil
	default:
		l.qmu.Unlock()
		// Accept queue overflow models a SYN backlog drop.
		return nil, fmt.Errorf("%w: %s (backlog full)", ErrConnectionRefused, dst)
	}
}

// pipeHalf is one direction's buffered byte stream.
type pipeHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool // write side closed
}

func newPipeHalf() *pipeHalf {
	h := &pipeHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *pipeHalf) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, ErrClosed
	}
	h.buf = append(h.buf, p...)
	h.cond.Broadcast()
	return len(p), nil
}

func (h *pipeHalf) read(p []byte, deadline *deadline) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.buf) == 0 {
		if h.closed {
			return 0, errEOF
		}
		if deadline.expired() {
			return 0, ErrTimeout
		}
		waitDone := deadline.watch(h.cond)
		h.cond.Wait()
		waitDone()
	}
	n := copy(p, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

func (h *pipeHalf) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

var errEOF = errors.New("EOF")

// deadline implements cancellable read deadlines for a cond-based buffer.
type deadline struct {
	mu   sync.Mutex
	when time.Time
}

func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	d.when = t
	d.mu.Unlock()
}

func (d *deadline) expired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.when.IsZero() && time.Now().After(d.when)
}

// watch arranges to broadcast on cond when the deadline passes, so a
// blocked reader wakes up. It returns a cleanup func.
func (d *deadline) watch(cond *sync.Cond) func() {
	d.mu.Lock()
	when := d.when
	d.mu.Unlock()
	if when.IsZero() {
		return func() {}
	}
	timer := time.AfterFunc(time.Until(when)+time.Millisecond, cond.Broadcast)
	return func() { timer.Stop() }
}

// Conn is one side of a fabric connection. It implements net.Conn.
type Conn struct {
	readHalf  *pipeHalf // data flowing toward us
	writeHalf *pipeHalf // data flowing away from us
	local     Addr
	remote    Addr
	readDL    deadline
	closeOnce sync.Once
}

func newConnPair(clientAddr, serverAddr Addr) (client, server *Conn) {
	c2s := newPipeHalf()
	s2c := newPipeHalf()
	client = &Conn{readHalf: s2c, writeHalf: c2s, local: clientAddr, remote: serverAddr}
	server = &Conn{readHalf: c2s, writeHalf: s2c, local: serverAddr, remote: clientAddr}
	return client, server
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.readHalf.read(p, &c.readDL)
	if err == errEOF {
		return 0, io.EOF
	}
	if err == ErrTimeout {
		return 0, timeoutError{}
	}
	return n, err
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.writeHalf.write(p) }

// Close implements net.Conn: both directions are torn down.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.writeHalf.close()
		c.readHalf.close()
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn (read side only; writes never block).
func (c *Conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readDL.set(t)
	c.readHalf.cond.Broadcast()
	return nil
}

// SetWriteDeadline implements net.Conn (no-op: writes are buffered).
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// timeoutError satisfies net.Error for deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netsim: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
