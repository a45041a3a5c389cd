// Package telnet implements the Telnet protocol subset (RFC 854/857/858)
// that a Cowrie-class honeypot serves on port 23 and that IoT botnets
// such as Mirai speak when brute-forcing devices: IAC option negotiation,
// a login/password prompt flow, and a line-oriented data stream with IAC
// escaping. Both server and client roles are provided.
package telnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
)

// Telnet protocol bytes.
const (
	cmdSE   = 240
	cmdSB   = 250
	cmdWILL = 251
	cmdWONT = 252
	cmdDO   = 253
	cmdDONT = 254
	cmdIAC  = 255
)

// Option codes we reference.
const (
	optEcho            = 1
	optSuppressGoAhead = 3
)

// ErrTooManyTries is returned when the client exhausts its login attempts.
var ErrTooManyTries = errors.New("telnet: too many failed login attempts")

// AuthAttempt records one login attempt at the telnet prompt.
type AuthAttempt struct {
	User     string
	Password string
	Accepted bool
}

// Conn wraps a net.Conn with telnet IAC processing. Reads decode a block
// at a time: negotiation is consumed and answered, subnegotiations are
// dropped, data bytes pass through. Writes escape IAC and are queued;
// everything queued — data and negotiation replies alike — leaves in one
// Write of the underlying conn when this side next reads a line, is about
// to block in a read, or calls Flush or Close. There is no other write
// path, so what one side says between two of its own reads is one segment.
type Conn struct {
	nc net.Conn

	// rbuf[r:w] holds decoded data bytes not yet consumed. Decoding is in
	// place (it never lengthens a block), so this is the only read buffer.
	rbuf [1024]byte
	r, w int

	wbuf []byte

	// us holds the options enabled (or offered) on this side, him those
	// enabled on the peer's: RFC 854 option state, one bit per code.
	us, him optSet

	server bool
	state  decodeState // where in an IAC sequence the last block ended
	verb   byte        // WILL/WONT/DO/DONT awaiting its option byte
	skipLF bool        // a CR ended the last line; its LF or NUL is still to come
}

// maxPending is the queued-output size at which Write flushes by itself,
// and the most write buffer a Conn keeps between flushes.
const maxPending = 4096

// decodeState is the IAC state machine's position between two bytes.
type decodeState uint8

const (
	stData  decodeState = iota
	stIAC               // after IAC
	stOpt               // after IAC WILL/WONT/DO/DONT
	stSB                // inside IAC SB ... IAC SE
	stSBIAC             // after an IAC inside a subnegotiation
)

// optSet is one bit per option code.
type optSet [4]uint64

func (s *optSet) has(opt byte) bool { return s[opt>>6]&(1<<(opt&63)) != 0 }

func (s *optSet) set(opt byte, on bool) {
	if on {
		s[opt>>6] |= 1 << (opt & 63)
	} else {
		s[opt>>6] &^= 1 << (opt & 63)
	}
}

// NewConn wraps nc. Server connections will ECHO and SUPPRESS-GO-AHEAD
// and refuse everything else; clients accept whatever the server offers
// to do and do nothing themselves.
func NewConn(nc net.Conn, server bool) *Conn {
	return &Conn{nc: nc, server: server}
}

// NetConn returns the underlying connection (for deadline control).
func (c *Conn) NetConn() net.Conn { return c.nc }

// decode processes one raw block in place: negotiation is answered into
// wbuf, subnegotiations are dropped, and the data bytes are compacted to
// the front of the block. It returns how many there are.
func (c *Conn) decode(raw []byte) int {
	n := 0
	for _, b := range raw {
		switch c.state {
		case stData:
			if b == cmdIAC {
				c.state = stIAC
			} else {
				raw[n] = b
				n++
			}
		case stIAC:
			c.state = stData
			switch b {
			case cmdIAC: // escaped 0xFF data byte
				raw[n] = b
				n++
			case cmdWILL, cmdWONT, cmdDO, cmdDONT:
				c.verb, c.state = b, stOpt
			case cmdSB:
				c.state = stSB
			}
			// Other commands (NOP, AYT, ...) are ignored.
		case stOpt:
			c.state = stData
			c.negotiate(c.verb, b)
		case stSB:
			if b == cmdIAC {
				c.state = stSBIAC
			}
		case stSBIAC:
			// IAC SE ends the subnegotiation; IAC IAC is an escaped 0xFF
			// inside it, so a 240 that follows is a parameter byte.
			c.state = stSB
			if b == cmdSE {
				c.state = stData
			}
		}
	}
	return n
}

// negotiate applies RFC 854's rule to one request: a request to enter the
// state an option is already in is not acknowledged; any other is
// answered exactly once, and the answer waits in wbuf for the next flush.
// Replies are therefore never longer than the requests that drew them,
// and two Conns cannot acknowledge each other's acknowledgements.
func (c *Conn) negotiate(verb, opt byte) {
	// DO/DONT ask about this side's half of the option, WILL/WONT
	// announce the peer's.
	side, yes, no := &c.us, byte(cmdWILL), byte(cmdWONT)
	agree := c.server && (opt == optEcho || opt == optSuppressGoAhead)
	if verb == cmdWILL || verb == cmdWONT {
		side, yes, no = &c.him, cmdDO, cmdDONT
		agree = !c.server
	}
	enable := verb == cmdDO || verb == cmdWILL
	if enable == side.has(opt) {
		return
	}
	reply := no
	if enable && agree {
		reply = yes
	}
	side.set(opt, reply == yes)
	c.wbuf = append(c.wbuf, cmdIAC, reply, opt)
}

// fill blocks until the peer has sent at least one data byte. What this
// side has queued leaves first: the peer's next bytes are the answer to it.
func (c *Conn) fill() error {
	for {
		if err := c.Flush(); err != nil {
			return err
		}
		n, err := c.nc.Read(c.rbuf[:])
		c.r, c.w = 0, c.decode(c.rbuf[:n])
		if c.w > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// readByte returns the next data byte without flushing first, so a
// caller that loops over it writes at most once per read of the conn.
func (c *Conn) readByte() (byte, error) {
	for {
		if c.r == c.w {
			if err := c.fill(); err != nil {
				return 0, err
			}
		}
		b := c.rbuf[c.r]
		c.r++
		if c.skipLF {
			c.skipLF = false
			if b == '\n' || b == 0 {
				continue
			}
		}
		return b, nil
	}
}

// ReadByte flushes what is queued and returns the next data byte,
// transparently handling IAC sequences.
func (c *Conn) ReadByte() (byte, error) {
	if err := c.Flush(); err != nil {
		return 0, err
	}
	return c.readByte()
}

// ReadLine flushes what is queued, then reads a CR/LF-terminated line of
// data bytes, tolerating the CR NUL and bare-LF forms bots send. The
// returned line excludes the terminator.
func (c *Conn) ReadLine() (string, error) {
	if err := c.Flush(); err != nil {
		return "", err
	}
	line := make([]byte, 0, 64)
	for len(line) < 4096 {
		x, err := c.readByte()
		if err != nil {
			if err == io.EOF && len(line) > 0 {
				return string(line), nil
			}
			return "", err
		}
		switch x {
		case '\r':
			c.skipLF = true
			return string(line), nil
		case '\n':
			return string(line), nil
		case 0x7f, '\b':
			// Backspace editing, as interactive bots sometimes emit.
			if len(line) > 0 {
				line = line[:len(line)-1]
			}
		case 0:
			// NUL padding is ignored.
		default:
			line = append(line, x)
		}
	}
	return string(line), nil
}

// Write queues data bytes, escaping IAC. It reaches the underlying conn
// only once maxPending bytes are waiting.
func (c *Conn) Write(p []byte) (int, error) {
	for rest := p; ; {
		i := bytes.IndexByte(rest, cmdIAC)
		if i < 0 {
			c.wbuf = append(c.wbuf, rest...)
			break
		}
		c.wbuf = append(append(c.wbuf, rest[:i+1]...), cmdIAC)
		rest = rest[i+1:]
	}
	if len(c.wbuf) >= maxPending {
		if err := c.Flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// WriteString queues a string.
func (c *Conn) WriteString(s string) error {
	_, err := c.Write([]byte(s))
	return err
}

// Flush hands everything queued to the underlying conn in one Write.
func (c *Conn) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	if cap(c.wbuf) > maxPending {
		c.wbuf = nil // one large output does not stay resident for the session
	}
	return err
}

// Close flushes and closes the underlying connection.
func (c *Conn) Close() error {
	ferr := c.Flush()
	if err := c.nc.Close(); err != nil {
		return err
	}
	return ferr
}

// ServerConfig configures the telnet login flow.
type ServerConfig struct {
	// Banner is printed before the first login prompt.
	Banner string
	// Auth decides whether credentials are accepted. Required.
	Auth func(user, password string) bool
	// AuthLog observes every attempt.
	AuthLog func(AuthAttempt)
	// MaxTries disconnects after this many failures (default 3,
	// matching the busybox login default and Cowrie).
	MaxTries int
}

// ServerSession is an authenticated telnet session.
type ServerSession struct {
	Conn *Conn
	User string
}

// Handshake runs the negotiation and login flow on an accepted
// connection. On success the returned session carries the telnet Conn
// for the shell loop; on failure the connection is NOT closed (the
// caller owns it) and the error describes why.
func Handshake(nc net.Conn, cfg *ServerConfig) (*ServerSession, error) {
	if cfg.Auth == nil {
		return nil, errors.New("telnet: ServerConfig requires Auth")
	}
	maxTries := cfg.MaxTries
	if maxTries <= 0 {
		maxTries = 3
	}
	c := NewConn(nc, true)
	// Offer ECHO + SGA like a real telnetd. An offer counts as entering
	// the state, so the client's DO that acknowledges it draws no reply.
	c.us.set(optEcho, true)
	c.us.set(optSuppressGoAhead, true)
	c.wbuf = append(c.wbuf, cmdIAC, cmdWILL, optEcho, cmdIAC, cmdWILL, optSuppressGoAhead)
	if cfg.Banner != "" {
		if err := c.WriteString(cfg.Banner + "\r\n"); err != nil {
			return nil, err
		}
	}
	for try := 0; try < maxTries; try++ {
		if err := c.WriteString("login: "); err != nil {
			return nil, err
		}
		user, err := c.ReadLine()
		if err != nil {
			return nil, fmt.Errorf("telnet: reading username: %w", err)
		}
		if err := c.WriteString("Password: "); err != nil {
			return nil, err
		}
		pass, err := c.ReadLine()
		if err != nil {
			return nil, fmt.Errorf("telnet: reading password: %w", err)
		}
		ok := cfg.Auth(user, pass)
		if cfg.AuthLog != nil {
			cfg.AuthLog(AuthAttempt{User: user, Password: pass, Accepted: ok})
		}
		if ok {
			// The "Last login" line doubles as the success marker the
			// client side keys on, like real bots keying on the motd.
			if err := c.WriteString("\r\nLast login: Tue Jun  1 12:01:32 UTC 2022 from 10.0.0.2 on pts/0\r\n"); err != nil {
				return nil, err
			}
			// The caller may never read again (a probe that closes the
			// socket after login), so the motd cannot wait for one.
			if err := c.Flush(); err != nil {
				return nil, err
			}
			return &ServerSession{Conn: c, User: user}, nil
		}
		if err := c.WriteString("\r\nLogin incorrect\r\n"); err != nil {
			return nil, err
		}
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return nil, ErrTooManyTries
}

// ClientLogin performs the client side of the login flow: waits for the
// "login:" prompt, sends the username, waits for "Password:", sends the
// password, and reports whether login succeeded (no "Login incorrect"
// before the next prompt). The conn stays open either way.
func ClientLogin(c *Conn, user, password string) (bool, error) {
	if _, err := c.waitFor(4096, "login:"); err != nil {
		return false, err
	}
	if err := c.WriteString(user + "\r\n"); err != nil {
		return false, err
	}
	if _, err := c.waitFor(4096, "Password:"); err != nil {
		return false, err
	}
	if err := c.WriteString(password + "\r\n"); err != nil {
		return false, err
	}
	// Success: the "Last login" motd line. Failure: "Login incorrect".
	which, err := c.waitFor(512, "Login incorrect", "Last login")
	if err != nil || which == 0 {
		return false, err
	}
	// Consume the rest of the motd line so the shell stream starts clean
	// for the caller.
	if _, err := c.waitFor(4096, "\n"); err != nil {
		return false, err
	}
	return true, nil
}

// maxMarker bounds the markers waitFor is given ("Login incorrect" is the
// longest).
const maxMarker = 16

// waitFor flushes what is queued, then consumes data up to and including
// the first of the markers to appear and reports which it was, giving up
// once limit bytes have gone by. Each block is scanned once: only the
// len(marker)-1 bytes a marker could straddle are carried between blocks.
func (c *Conn) waitFor(limit int, markers ...string) (int, error) {
	if err := c.Flush(); err != nil {
		return 0, err
	}
	keep := 0
	for _, m := range markers {
		keep = max(keep, len(m)-1)
	}
	var win [maxMarker + len(c.rbuf)]byte // carry, then one block
	carry := 0
	for seen := 0; seen < limit; {
		if c.r == c.w {
			if err := c.fill(); err != nil {
				return 0, err
			}
		}
		n := copy(win[carry:], c.rbuf[c.r:min(c.w, c.r+limit-seen)])
		w := win[:carry+n]
		which, end := -1, len(w)
		for i, m := range markers {
			if j := bytes.Index(w, []byte(m)); j >= 0 && j+len(m) <= end {
				which, end = i, j+len(m)
			}
		}
		c.r += end - carry
		seen += end - carry
		if which >= 0 {
			return which, nil
		}
		carry = copy(win[:], w[max(0, len(w)-keep):])
	}
	return 0, fmt.Errorf("telnet: none of %q seen in %d bytes", markers, limit)
}
