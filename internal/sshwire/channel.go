package sshwire

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"honeyfarm/internal/wire"
)

const (
	defaultWindow    = 2 << 20 // 2 MiB initial window each direction
	defaultMaxPacket = 32 << 10
	windowThreshold  = 1 << 20 // re-advertise after consuming this much
)

// Request is a channel request (RFC 4254 §5.4) surfaced to the session
// owner: pty-req, env, shell, exec, window-change, exit-status, ...
type Request struct {
	Type    string
	Command string // for exec
	Term    string // for pty-req
	Cols    uint32
	Rows    uint32
	Name    string // for env
	Value   string
	Status  uint32 // for exit-status
}

// Channel is one SSH connection-protocol channel. Read and Write may be
// used concurrently with each other.
type Channel struct {
	mux       *mux
	localID   uint32
	remoteID  uint32
	maxPacket uint32

	mu           sync.Mutex
	cond         *sync.Cond
	buf          []byte
	eof          bool
	closed       bool
	closeErr     error // non-nil when the mux died (e.g. read timeout)
	sentClose    bool
	remoteWindow uint32
	consumed     uint32
	exitStatus   uint32
	gotExit      bool

	// Requests receives channel requests; the mux never blocks on it —
	// overflow requests are acknowledged but dropped from the queue.
	Requests chan Request

	replyCh  chan bool // channel-request replies for this channel
	done     chan struct{}
	doneOnce sync.Once
}

// Done is closed when the channel is closed by either side or the
// connection dies. Select on it alongside Requests to avoid blocking on
// a peer that leaves without sending the request you wait for.
func (ch *Channel) Done() <-chan struct{} { return ch.done }

func (ch *Channel) markDone() { ch.doneOnce.Do(func() { close(ch.done) }) }

// ChannelType of sessions (the only type a honeypot serves).
const channelTypeSession = "session"

var errChannelClosed = errors.New("sshwire: channel closed")

// mux multiplexes channels over one transport after authentication.
type mux struct {
	t *transport

	mu       sync.Mutex
	channels map[uint32]*Channel
	nextID   uint32
	accept   chan *Channel // incoming session channels (server side)
	err      error
	done     chan struct{}
}

// newMux ends the handshake: it clears the transport's hold, which sends
// whatever the handshake's last step queued (the server's
// USERAUTH_SUCCESS), and starts the reader goroutine. From here every
// writePacket flushes at once unless its owner holds the transport again.
func newMux(t *transport) *mux {
	m := &mux{
		t:        t,
		channels: make(map[uint32]*Channel),
		accept:   make(chan *Channel, 4),
		done:     make(chan struct{}),
	}
	t.handshaking = false
	if err := t.release(); err != nil {
		m.fail(err)
		return m
	}
	go m.run()
	return m
}

func (m *mux) newChannel() *Channel {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := &Channel{
		mux:      m,
		localID:  m.nextID,
		Requests: make(chan Request, 16),
		replyCh:  make(chan bool, 4),
		done:     make(chan struct{}),
	}
	ch.cond = sync.NewCond(&ch.mu)
	m.nextID++
	m.channels[ch.localID] = ch
	return ch
}

func (m *mux) channel(id uint32) *Channel {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.channels[id]
}

// fail terminates the mux, waking all channels.
func (m *mux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.done)
	}
	chans := make([]*Channel, 0, len(m.channels))
	for _, ch := range m.channels {
		chans = append(chans, ch)
	}
	m.mu.Unlock()
	for _, ch := range chans {
		ch.mu.Lock()
		ch.closed = true
		ch.closeErr = err
		ch.cond.Broadcast()
		ch.mu.Unlock()
		ch.markDone()
	}
	close(m.accept)
}

func (m *mux) run() {
	for {
		payload, err := m.t.readPacket()
		if err != nil {
			m.fail(err)
			return
		}
		if err := m.dispatch(payload); err != nil {
			m.fail(err)
			return
		}
	}
}

func (m *mux) dispatch(payload []byte) error {
	r := wire.NewReader(payload[1:])
	switch payload[0] {
	case msgChannelOpen:
		chType := r.Text()
		remoteID := r.Uint32()
		remoteWindow := r.Uint32()
		maxPacket := r.Uint32()
		if err := r.Err(); err != nil {
			return err
		}
		if chType != channelTypeSession {
			b := wire.NewBuilder(64)
			b.Byte(msgChannelOpenFailure).Uint32(remoteID).Uint32(openUnknownChannelType).
				Text("unknown channel type").Text("")
			return m.t.writePacket(b.Bytes())
		}
		ch := m.newChannel()
		ch.remoteID = remoteID
		ch.remoteWindow = remoteWindow
		ch.maxPacket = maxPacket
		b := wire.NewBuilder(32)
		b.Byte(msgChannelOpenConfirm).Uint32(remoteID).Uint32(ch.localID).
			Uint32(defaultWindow).Uint32(defaultMaxPacket)
		if err := m.t.writePacket(b.Bytes()); err != nil {
			return err
		}
		select {
		case m.accept <- ch:
		default:
			// Accept queue full: reject politely by closing.
			_ = ch.Close()
		}

	case msgChannelOpenConfirm:
		localID := r.Uint32()
		remoteID := r.Uint32()
		window := r.Uint32()
		maxPacket := r.Uint32()
		if err := r.Err(); err != nil {
			return err
		}
		if ch := m.channel(localID); ch != nil {
			ch.mu.Lock()
			ch.remoteID = remoteID
			ch.remoteWindow = window
			ch.maxPacket = maxPacket
			ch.mu.Unlock()
			select {
			case ch.replyCh <- true:
			default:
			}
		}

	case msgChannelOpenFailure:
		localID := r.Uint32()
		if ch := m.channel(localID); ch != nil {
			select {
			case ch.replyCh <- false:
			default:
			}
		}

	case msgChannelData:
		localID := r.Uint32()
		data := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if ch := m.channel(localID); ch != nil {
			ch.mu.Lock()
			ch.buf = append(ch.buf, data...)
			ch.cond.Broadcast()
			ch.mu.Unlock()
		}

	case msgChannelExtendedData:
		localID := r.Uint32()
		r.Uint32() // data type code (stderr); fold into the stream
		data := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if ch := m.channel(localID); ch != nil {
			ch.mu.Lock()
			ch.buf = append(ch.buf, data...)
			ch.cond.Broadcast()
			ch.mu.Unlock()
		}

	case msgChannelWindowAdjust:
		localID := r.Uint32()
		add := r.Uint32()
		if ch := m.channel(localID); ch != nil {
			ch.mu.Lock()
			ch.remoteWindow += add
			ch.cond.Broadcast()
			ch.mu.Unlock()
		}

	case msgChannelEOF:
		localID := r.Uint32()
		if ch := m.channel(localID); ch != nil {
			ch.mu.Lock()
			ch.eof = true
			ch.cond.Broadcast()
			ch.mu.Unlock()
		}

	case msgChannelClose:
		localID := r.Uint32()
		if ch := m.channel(localID); ch != nil {
			ch.mu.Lock()
			alreadySent := ch.sentClose
			ch.closed = true
			ch.eof = true
			ch.cond.Broadcast()
			ch.mu.Unlock()
			ch.markDone()
			if !alreadySent {
				//lint:ignore error-discard best-effort close echo; the transport reader surfaces real failures
				_ = ch.sendClose()
			}
		}

	case msgChannelRequest:
		localID := r.Uint32()
		reqType := r.Text()
		wantReply := r.Bool()
		req := Request{Type: reqType}
		switch reqType {
		case "exec":
			req.Command = r.Text()
		case "pty-req":
			req.Term = r.Text()
			req.Cols = r.Uint32()
			req.Rows = r.Uint32()
		case "env":
			req.Name = r.Text()
			req.Value = r.Text()
		case "exit-status":
			req.Status = r.Uint32()
		case "window-change":
			req.Cols = r.Uint32()
			req.Rows = r.Uint32()
		}
		if err := r.Err(); err != nil {
			return err
		}
		ch := m.channel(localID)
		if ch == nil {
			return nil
		}
		known := reqType == "pty-req" || reqType == "env" || reqType == "shell" ||
			reqType == "exec" || reqType == "window-change" || reqType == "exit-status" ||
			reqType == "subsystem"
		if wantReply {
			b := wire.NewBuilder(16)
			msg := byte(msgChannelRequestSuccess)
			if !known || reqType == "subsystem" {
				msg = msgChannelRequestFailure
			}
			b.Byte(msg).Uint32(ch.remoteIDLocked())
			if err := m.t.writePacket(b.Bytes()); err != nil {
				return err
			}
		}
		if reqType == "exit-status" {
			ch.mu.Lock()
			ch.exitStatus = req.Status
			ch.gotExit = true
			ch.mu.Unlock()
		}
		select {
		case ch.Requests <- req:
		default:
		}

	case msgChannelRequestSuccess:
		localID := r.Uint32()
		if ch := m.channel(localID); ch != nil {
			select {
			case ch.replyCh <- true:
			default:
			}
		}

	case msgChannelRequestFailure:
		localID := r.Uint32()
		if ch := m.channel(localID); ch != nil {
			select {
			case ch.replyCh <- false:
			default:
			}
		}

	case msgGlobalRequest:
		r.Text() // request name
		if r.Bool() {
			b := wire.NewBuilder(4)
			b.Byte(msgRequestFailure)
			return m.t.writePacket(b.Bytes())
		}

	case msgServiceRequest, msgUserauthRequest:
		// Out-of-phase messages after auth: protocol error.
		return fmt.Errorf("sshwire: unexpected message %d after authentication", payload[0])
	}
	return nil
}

func (ch *Channel) remoteIDLocked() uint32 {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.remoteID
}

// Read returns channel data, blocking until data, EOF, or close.
func (ch *Channel) Read(p []byte) (int, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for len(ch.buf) == 0 {
		if ch.closed && ch.closeErr != nil {
			return 0, ch.closeErr
		}
		if ch.eof || ch.closed {
			return 0, io.EOF
		}
		ch.cond.Wait()
	}
	n := copy(p, ch.buf)
	ch.buf = ch.buf[n:]
	ch.consumed += uint32(n)
	var adjust uint32
	if ch.consumed >= windowThreshold {
		adjust = ch.consumed
		ch.consumed = 0
	}
	remoteID := ch.remoteID
	ch.mu.Unlock()
	if adjust > 0 {
		b := wire.NewBuilder(16)
		b.Byte(msgChannelWindowAdjust).Uint32(remoteID).Uint32(adjust)
		//lint:ignore error-discard advisory window update; a dead transport fails the next Read
		_ = ch.mux.t.writePacket(b.Bytes())
	}
	ch.mu.Lock()
	return n, nil
}

// Write sends channel data, splitting at the peer's maximum packet size
// and honoring its advertised window.
func (ch *Channel) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		ch.mu.Lock()
		if ch.remoteWindow == 0 && !ch.closed {
			// The peer reopens the window only after reading what we sent:
			// nothing may sit in a held transport while we wait for that.
			ch.mu.Unlock()
			if err := ch.mux.t.flush(); err != nil {
				return total, err
			}
			ch.mu.Lock()
		}
		for ch.remoteWindow == 0 && !ch.closed {
			ch.cond.Wait()
		}
		if ch.closed {
			ch.mu.Unlock()
			return total, errChannelClosed
		}
		n := len(p)
		if max := int(ch.maxPacket) - 64; max > 0 && n > max {
			n = max
		}
		if w := int(ch.remoteWindow); n > w {
			n = w
		}
		ch.remoteWindow -= uint32(n)
		remoteID := ch.remoteID
		ch.mu.Unlock()

		b := wire.NewBuilder(n + 16)
		b.Byte(msgChannelData).Uint32(remoteID).String(p[:n])
		if err := ch.mux.t.writePacket(b.Bytes()); err != nil {
			return total, err
		}
		p = p[n:]
		total += n
	}
	return total, nil
}

// SendRequest issues a channel request and, if wantReply, waits for the
// peer's success/failure response.
func (ch *Channel) SendRequest(reqType string, wantReply bool, extra func(*wire.Builder)) (bool, error) {
	b := wire.NewBuilder(64)
	b.Byte(msgChannelRequest).Uint32(ch.remoteIDLocked()).Text(reqType).Bool(wantReply)
	if extra != nil {
		extra(b)
	}
	// A reply answers this packet, so it may not wait in a held transport.
	if err := ch.mux.t.send(b.Bytes(), wantReply); err != nil {
		return false, err
	}
	if !wantReply {
		return true, nil
	}
	return ch.awaitReply()
}

// awaitReply waits for the peer's answer to a request or channel open. A
// reply that arrived before the connection died still counts: a server
// that answers and hangs up in one segment has answered.
func (ch *Channel) awaitReply() (bool, error) {
	select {
	case ok := <-ch.replyCh:
		return ok, nil
	case <-ch.mux.done:
	}
	select {
	case ok := <-ch.replyCh:
		return ok, nil
	default:
		return false, ch.mux.errLocked()
	}
}

func (m *mux) errLocked() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return errors.New("sshwire: connection closed")
}

// SendExitStatus reports a command's exit status (server side).
func (ch *Channel) SendExitStatus(status uint32) error {
	_, err := ch.SendRequest("exit-status", false, func(b *wire.Builder) {
		b.Uint32(status)
	})
	return err
}

// ExitStatus returns the exit status received from the peer, if any.
func (ch *Channel) ExitStatus() (uint32, bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.exitStatus, ch.gotExit
}

// CloseWrite signals EOF for our direction without closing the channel.
func (ch *Channel) CloseWrite() error {
	b := wire.NewBuilder(8)
	b.Byte(msgChannelEOF).Uint32(ch.remoteIDLocked())
	return ch.mux.t.writePacket(b.Bytes())
}

func (ch *Channel) sendClose() error {
	ch.mu.Lock()
	if ch.sentClose {
		ch.mu.Unlock()
		return nil
	}
	ch.sentClose = true
	remoteID := ch.remoteID
	ch.mu.Unlock()
	b := wire.NewBuilder(8)
	b.Byte(msgChannelClose).Uint32(remoteID)
	return ch.mux.t.writePacket(b.Bytes())
}

// Close closes the channel, notifying the peer.
func (ch *Channel) Close() error {
	err := ch.sendClose()
	ch.mu.Lock()
	ch.closed = true
	ch.cond.Broadcast()
	ch.mu.Unlock()
	ch.markDone()
	return err
}
