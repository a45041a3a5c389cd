// Package netsim provides an in-memory network fabric with net.Conn /
// net.Listener semantics: addressable endpoints, buffered full-duplex
// pipes, fault-hook connection faults, and deadline support. The
// honeyfarm's simulated attackers dial in-process honeypots through
// this fabric using the exact same SSH/Telnet protocol code that runs
// over real TCP, so wire-level experiments need no sockets and scale to
// thousands of concurrent sessions.
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
	ErrReset             = errors.New("netsim: connection reset by peer")
)

// ConnFault describes the faults to inject into one dialed connection.
// The zero value is a healthy connection.
type ConnFault struct {
	// Refuse fails the dial with ErrConnectionRefused.
	Refuse bool
	// ResetAfter, when positive, tears the connection down with ErrReset
	// on both sides once that many payload bytes have been written.
	ResetAfter int
	// Stall blackholes the connection: writes succeed but no data is
	// ever delivered, so readers block until their deadline or Close.
	Stall bool
	// Jitter delays connection establishment.
	Jitter time.Duration
}

// FaultHook decides the fault treatment for each dial. It runs on the
// dialing goroutine before the connection is created and must be safe
// for concurrent use.
type FaultHook func(src string, dst Addr) ConnFault

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
	faultHook FaultHook
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		listeners: make(map[Addr]*Listener),
		nextPort:  40000,
	}
}

// SetFaultHook installs (or, with nil, removes) the fault hook applied
// to subsequent dials.
func (f *Fabric) SetFaultHook(h FaultHook) {
	f.mu.Lock()
	f.faultHook = h
	f.mu.Unlock()
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

// Dial connects from srcIP to dst. It waits out any fault-hook jitter
// and fails with
// ErrConnectionRefused when nothing listens on dst or the fault hook
// refuses the connection.
func (f *Fabric) Dial(srcIP string, dst Addr) (net.Conn, error) {
	f.mu.Lock()
	hook := f.faultHook
	l, ok := f.listeners[dst]
	src := Addr{IP: srcIP, Port: f.nextPort}
	f.nextPort++
	if f.nextPort > 65000 {
		f.nextPort = 40000
	}
	f.mu.Unlock()
	var fd ConnFault
	if hook != nil {
		fd = hook(srcIP, dst)
	}
	if fd.Jitter > 0 {
		time.Sleep(fd.Jitter)
	}
	if fd.Refuse || !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, dst)
	}
	clientSide, serverSide := newConnPair(src, dst)
	applyFault(clientSide, serverSide, fd)
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

// applyFault wires reset budgets and stall blackholes into a fresh
// connection pair, before either side is shared with another goroutine.
func applyFault(client, server *Conn, fd ConnFault) {
	if fd.Stall {
		client.readHalf.blackhole = true
		client.writeHalf.blackhole = true
	}
	if fd.ResetAfter > 0 {
		shared := &connFault{budget: fd.ResetAfter}
		client.fault = shared
		server.fault = shared
	}
}

// connFault tracks the shared reset byte budget of a connection pair.
type connFault struct {
	mu     sync.Mutex
	budget int
}

// consume debits n bytes and reports how many may still be written and
// whether the budget just tripped.
func (cf *connFault) consume(n int) (allowed int, tripped bool) {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	if cf.budget <= 0 {
		return 0, true
	}
	if n >= cf.budget {
		allowed = cf.budget
		cf.budget = 0
		return allowed, true
	}
	cf.budget -= n
	return n, false
}

// pipeHalf is one direction's buffered byte stream.
type pipeHalf struct {
	mu        sync.Mutex
	cond      *sync.Cond
	buf       []byte
	closed    bool // write side closed
	reset     bool // torn down by an injected reset
	blackhole bool // stall fault: accept writes, deliver nothing
}

func newPipeHalf() *pipeHalf {
	h := &pipeHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *pipeHalf) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.reset {
		return 0, ErrReset
	}
	if h.closed {
		return 0, ErrClosed
	}
	if h.blackhole {
		return len(p), nil
	}
	h.buf = append(h.buf, p...)
	h.cond.Broadcast()
	return len(p), nil
}

func (h *pipeHalf) read(p []byte, deadline *deadline) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.buf) == 0 {
		if h.reset {
			return 0, ErrReset
		}
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

// closeReset tears the half down like a TCP RST: buffered data is
// discarded and both readers and writers observe ErrReset.
func (h *pipeHalf) closeReset() {
	h.mu.Lock()
	h.closed = true
	h.reset = true
	h.buf = nil
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
	fault     *connFault // shared reset budget, nil when healthy
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

// Write implements net.Conn. When a reset budget is attached and this
// write exhausts it, the allowed prefix is delivered and the connection
// is torn down with ErrReset on both sides.
func (c *Conn) Write(p []byte) (int, error) {
	if c.fault != nil {
		allowed, tripped := c.fault.consume(len(p))
		if tripped {
			// Like a TCP RST, data not yet read is discarded — the
			// accepted prefix is counted but never delivered.
			c.writeHalf.closeReset()
			c.readHalf.closeReset()
			return allowed, ErrReset
		}
	}
	return c.writeHalf.write(p)
}

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
