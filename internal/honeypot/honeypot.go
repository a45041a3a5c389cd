package honeypot

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"honeyfarm/internal/shell"
	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/telnet"
	"honeyfarm/internal/vfs"
)

// Cowrie-equivalent timeouts. The paper reports a three-minute session
// timeout after login (Section 4) and a shorter pre-auth window visible
// as the first dashed line in Figure 7.
const (
	DefaultPreAuthTimeout  = 60 * time.Second
	DefaultPostAuthTimeout = 180 * time.Second
)

// Config configures a honeypot instance.
type Config struct {
	// ID is the honeypot's index within the farm.
	ID int
	// HostKey is the SSH host key; generated if nil.
	HostKey ed25519.PrivateKey
	// RSAHostKey optionally adds an rsa-sha2-256 host key so clients
	// without ed25519 support can connect. RSA keygen is slow, so farms
	// share one key across honeypots rather than generating per pot.
	RSAHostKey *rsa.PrivateKey
	// Auth is the credential policy. Nil selects CowrieAuth.
	Auth func(user, password string) bool
	// Fetch resolves URIs for wget/curl/tftp downloads. Nil means
	// downloads fail (egress blocked) but URIs are still recorded.
	Fetch shell.FetchFunc
	// PreAuthTimeout and PostAuthTimeout bound client inactivity.
	PreAuthTimeout  time.Duration
	PostAuthTimeout time.Duration
	// Now supplies record timestamps (defaults to time.Now).
	Now func() time.Time
	// Sink receives every completed session record. Required to be
	// non-nil for records to be observable.
	Sink func(*SessionRecord)
	// RecordTranscript captures the shell output stream into
	// SessionRecord.Transcript (capped at TranscriptCap).
	RecordTranscript bool
	// ServerVersion is the SSH identification string.
	ServerVersion string
}

// CowrieAuth is the paper's honeypot policy: password authentication for
// user "root" with any password except "root" (Section 4).
func CowrieAuth(user, password string) bool {
	return user == "root" && password != "root"
}

// Honeypot is one medium-interaction honeypot instance. It is safe for
// concurrent use; each connection is served on its caller's goroutine.
type Honeypot struct {
	cfg      Config
	hostKey  ed25519.PrivateKey
	template *vfs.FS
	nextID   atomic.Uint64
}

// New creates a honeypot. The baseline filesystem image is built once
// and cloned per session.
func New(cfg Config) (*Honeypot, error) {
	if cfg.Auth == nil {
		cfg.Auth = CowrieAuth
	}
	if cfg.PreAuthTimeout <= 0 {
		cfg.PreAuthTimeout = DefaultPreAuthTimeout
	}
	if cfg.PostAuthTimeout <= 0 {
		cfg.PostAuthTimeout = DefaultPostAuthTimeout
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.ServerVersion == "" {
		cfg.ServerVersion = "SSH-2.0-OpenSSH_7.9p1 Debian-10+deb10u2"
	}
	hostKey := cfg.HostKey
	if hostKey == nil {
		var err error
		_, hostKey, err = ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("honeypot: generating host key: %w", err)
		}
	}
	return &Honeypot{
		cfg:      cfg,
		hostKey:  hostKey,
		template: vfs.New(cfg.Now),
	}, nil
}

// ID returns the honeypot's farm index.
func (h *Honeypot) ID() int { return h.cfg.ID }

// HostKey returns the SSH host key's public half.
func (h *Honeypot) HostKey() ed25519.PublicKey {
	return h.hostKey.Public().(ed25519.PublicKey)
}

// sessionRecorder adapts the shell's Recorder interface onto a record.
type sessionRecorder struct {
	mu  sync.Mutex
	rec *SessionRecord
}

func (s *sessionRecorder) Command(raw string, known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec.Commands = append(s.rec.Commands, CommandRecord{Input: raw, Known: known})
}

func (s *sessionRecorder) URI(uri string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec.URIs = append(s.rec.URIs, uri)
}

func (s *sessionRecorder) File(ev vfs.FileEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec.Files = append(s.rec.Files, FileRecord{
		Path: ev.Path, Hash: ev.Hash, Op: ev.Op.String(), Size: ev.Size,
	})
}

func (h *Honeypot) newRecord(proto Protocol, remote net.Addr) *SessionRecord {
	ip, port := splitAddr(remote)
	return &SessionRecord{
		// IDs are unique across a farm: honeypot index in the high bits,
		// per-honeypot sequence in the low ones.
		ID:         uint64(h.cfg.ID)<<40 | h.nextID.Add(1),
		HoneypotID: h.cfg.ID,
		Protocol:   proto,
		ClientIP:   ip,
		ClientPort: port,
		Start:      h.cfg.Now(),
	}
}

func splitAddr(a net.Addr) (string, int) {
	if a == nil {
		return "", 0
	}
	host, portStr, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String(), 0
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return host, 0
	}
	return host, port
}

// appendTranscript records shell output when transcripts are enabled.
func (h *Honeypot) appendTranscript(rec *SessionRecord, data []byte) {
	if !h.cfg.RecordTranscript || len(rec.Transcript) >= TranscriptCap {
		return
	}
	room := TranscriptCap - len(rec.Transcript)
	if len(data) > room {
		data = data[:room]
	}
	rec.Transcript = append(rec.Transcript, data...)
}

func (h *Honeypot) finish(rec *SessionRecord, term Termination) {
	rec.End = h.cfg.Now()
	rec.Termination = term
	if h.cfg.Sink != nil {
		h.cfg.Sink(rec)
	}
}

// ServeSSH handles one accepted SSH connection to completion, emitting a
// SessionRecord. The connection is always closed on return.
func (h *Honeypot) ServeSSH(nc net.Conn) {
	defer nc.Close()
	rec := h.newRecord(SSH, nc.RemoteAddr())
	var mu sync.Mutex

	_ = nc.SetDeadline(time.Now().Add(h.cfg.PreAuthTimeout))
	sconn, err := sshwire.NewServerConn(nc, &sshwire.ServerConfig{
		HostKey:    h.hostKey,
		RSAHostKey: h.cfg.RSAHostKey,
		Version:    h.cfg.ServerVersion,
		PasswordCallback: func(user, pass string) bool {
			return h.cfg.Auth(user, pass)
		},
		AuthLogCallback: func(a sshwire.AuthAttempt) {
			if a.Method != "password" {
				return
			}
			mu.Lock()
			rec.Logins = append(rec.Logins, LoginAttempt{User: a.User, Password: a.Password, Success: a.Accepted})
			mu.Unlock()
		},
		MaxAuthTries: 3,
	})
	if err != nil {
		// Classify: no credentials at all vs failed logins.
		term := termOf(err)
		if term == TermClient && len(rec.Logins) >= 3 {
			term = TermAuthFailure
		}
		h.finish(rec, term)
		return
	}
	rec.ClientVersion = sconn.ClientVersion()
	defer sconn.Close()

	_ = nc.SetDeadline(time.Now().Add(h.cfg.PostAuthTimeout))
	sess, err := sconn.AcceptSession()
	if err != nil {
		h.finish(rec, termOf(err))
		return
	}

	srec := &sessionRecorder{rec: rec}
	fs := h.template.Clone()
	var out bytes.Buffer
	sh := shell.New(fs, &out, srec)
	sh.Fetch = h.cfg.Fetch

	// Wait for shell or exec (consuming pty-req/env on the way), without
	// blocking past a client that opens a session and leaves.
	var execCmd string
	wantShell := false
reqLoop:
	for {
		select {
		case req := <-sess.Requests:
			switch req.Type {
			case "shell":
				wantShell = true
				break reqLoop
			case "exec":
				execCmd = req.Command
				break reqLoop
			}
		case <-sess.Done():
			break reqLoop
		}
	}

	if execCmd != "" {
		rc := sh.Run(execCmd)
		data := crlf(out.Bytes())
		// Output, exit status, EOF, CLOSE and the disconnect are the
		// server's last words and wait for no answer: one segment.
		sconn.HoldWrites()
		//lint:ignore error-discard best-effort delivery; the record is already complete
		_, _ = sess.Write(data)
		h.appendTranscript(rec, data)
		//lint:ignore error-discard best-effort teardown; client may already be gone
		_ = sess.SendExitStatus(uint32(rc))
		_ = sess.CloseWrite()
		_ = sess.Close()
		_ = sconn.Close()
		h.finish(rec, TermClient)
		return
	}
	if !wantShell {
		h.finish(rec, TermClient)
		return
	}

	// Interactive shell loop.
	term := h.shellLoop(nc, rec, sh, &out, lineReader(sess), sess)
	sconn.HoldWrites()
	_ = sess.Close()
	_ = sconn.Close()
	h.finish(rec, term)
}

// lineSource yields input lines for the shell loop.
type lineSource func() (string, error)

// shellLoop drives the prompt/read/execute cycle shared by SSH and
// Telnet sessions. The prompt is written before each line is read, as a
// shell on a pty does, so a peer that has hung up ends the session at the
// prompt even when more of its lines are waiting. Both directions of the
// inactivity deadline are reset before each read: a peer that stops
// reading is as idle as one that stops writing.
func (h *Honeypot) shellLoop(nc net.Conn, rec *SessionRecord, sh *shell.Shell, out *bytes.Buffer, lines lineSource, w io.Writer) Termination {
	emit := func(p []byte) error {
		h.appendTranscript(rec, p)
		_, err := w.Write(p)
		return err
	}
	for {
		if err := emit([]byte(sh.Prompt())); err != nil {
			return termOf(err)
		}
		_ = nc.SetDeadline(time.Now().Add(h.cfg.PostAuthTimeout))
		line, err := lines()
		if err != nil {
			return termOf(err)
		}
		out.Reset()
		sh.Run(line)
		if out.Len() > 0 {
			if err := emit(crlf(out.Bytes())); err != nil {
				return termOf(err)
			}
		}
		if sh.Exited() {
			return TermExit
		}
	}
}

// lineReader adapts a byte stream into newline-delimited lines.
func lineReader(r interface{ Read([]byte) (int, error) }) lineSource {
	var pending []byte
	buf := make([]byte, 1024)
	return func() (string, error) {
		for {
			if i := bytes.IndexByte(pending, '\n'); i >= 0 {
				line := strings.TrimRight(string(pending[:i]), "\r")
				pending = pending[i+1:]
				return line, nil
			}
			n, err := r.Read(buf)
			if n > 0 {
				pending = append(pending, buf[:n]...)
				continue
			}
			if err != nil {
				if len(pending) > 0 {
					line := strings.TrimRight(string(pending), "\r")
					pending = nil
					return line, err
				}
				return "", err
			}
		}
	}
}

// crlf converts bare newlines to CRLF for terminal output.
func crlf(b []byte) []byte {
	if !bytes.Contains(b, []byte{'\n'}) {
		return b
	}
	return bytes.ReplaceAll(b, []byte("\n"), []byte("\r\n"))
}

// ServeTelnet handles one accepted Telnet connection to completion.
func (h *Honeypot) ServeTelnet(nc net.Conn) {
	defer nc.Close()
	rec := h.newRecord(Telnet, nc.RemoteAddr())
	var mu sync.Mutex

	_ = nc.SetDeadline(time.Now().Add(h.cfg.PreAuthTimeout))
	sess, err := telnet.Handshake(nc, &telnet.ServerConfig{
		Banner: "Debian GNU/Linux 10",
		Auth:   h.cfg.Auth,
		AuthLog: func(a telnet.AuthAttempt) {
			mu.Lock()
			rec.Logins = append(rec.Logins, LoginAttempt{User: a.User, Password: a.Password, Success: a.Accepted})
			mu.Unlock()
		},
		MaxTries: 3,
	})
	if err != nil {
		term := termOf(err)
		if err == telnet.ErrTooManyTries {
			term = TermAuthFailure
		}
		h.finish(rec, term)
		return
	}

	srec := &sessionRecorder{rec: rec}
	fs := h.template.Clone()
	var out bytes.Buffer
	sh := shell.New(fs, &out, srec)
	sh.Fetch = h.cfg.Fetch

	// Each ReadLine flushes what the loop queued since the last one, so a
	// command's output and the next prompt are one Write.
	term := h.shellLoop(nc, rec, sh, &out, sess.Conn.ReadLine, sess.Conn)
	//lint:ignore error-discard the last command's output is best-effort; the record is already complete
	_ = sess.Conn.Flush()
	h.finish(rec, term)
}

// termOf classifies the error that ended a session: a deadline that ran
// out in either direction is a timeout, anything else is the client's doing.
func termOf(err error) Termination {
	if isTimeout(err) {
		return TermTimeout
	}
	return TermClient
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
