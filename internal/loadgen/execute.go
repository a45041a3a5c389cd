package loadgen

// The script executor: the one place that knows how to enact a paper
// category over a protocol. The driver runs plan scripts through it,
// FromRecord turns a recorded session into a script for it, and
// cmd/attack is flag parsing in front of it. Like the rest of the
// package it never reads the clock: deadlines are the caller's.

import (
	"bytes"
	"fmt"
	"io"
	"net"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/telnet"
)

// Execute enacts s over an established connection and reports how the
// session went; classify sorts a non-nil error into the taxonomy. The
// caller owns nc: dialing, the deadline and Close are its business.
func Execute(nc net.Conn, s Script) error {
	var c Client
	if s.Client != nil {
		c = *s.Client
	}
	if s.SSH {
		return runSSH(nc, s, c)
	}
	return runTelnet(nc, s, c)
}

// FromRecord converts a recorded session into the script that re-enacts
// it: the category the record classifies as, the credentials it logged
// (every failed pair for FAIL_LOG, the accepted pair otherwise), the
// command lines it typed and its client version. Nothing in the script
// aliases the record.
func FromRecord(rec *honeypot.SessionRecord) Script {
	c := &Client{Version: rec.ClientVersion}
	s := Script{
		Category: analysis.Classify(rec),
		SSH:      rec.Protocol != honeypot.Telnet,
		Client:   c,
	}
	if s.Category == analysis.FailLog {
		c.Logins = append([]honeypot.LoginAttempt(nil), rec.Logins...)
	}
	for _, l := range rec.Logins {
		if l.Success {
			s.User, s.Password = l.User, l.Password
			break
		}
	}
	for _, c := range rec.Commands {
		s.Commands = append(s.Commands, c.Input)
	}
	return s
}

// failedLogins are the pairs a FAIL_LOG script tries, in order.
func failedLogins(s Script, c Client) []honeypot.LoginAttempt {
	if c.Logins != nil {
		return c.Logins
	}
	logins := make([]honeypot.LoginAttempt, s.FailedAttempts)
	for i := range logins {
		// root/root is the one password CowrieAuth always rejects.
		logins[i] = honeypot.LoginAttempt{User: "root", Password: "root"}
	}
	return logins
}

// errAccepted is the protocol error of a FAIL_LOG script whose doomed
// credentials the peer let in.
func errAccepted(l honeypot.LoginAttempt) error {
	return fmt.Errorf("loadgen: %s/%s accepted in a FAIL_LOG script", l.User, l.Password)
}

func runSSH(nc net.Conn, s Script, c Client) error {
	version := c.Version
	if version == "" {
		version = "SSH-2.0-loadgen"
	}
	switch s.Category {
	case analysis.NoCred:
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true, Version: version})
		if err != nil {
			return err
		}
		return cc.Close()
	case analysis.FailLog:
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true, Version: version})
		if err != nil {
			return err
		}
		defer cc.Close()
		// Only the first pair is ever tried: TryPasswords answers a
		// rejection with ErrAuthFailed, and that ends the session as the
		// three-strike disconnect would. ROADMAP's sessions item; left
		// alone here because the fix changes what goes on the wire.
		if logins := failedLogins(s, c); len(logins) > 0 {
			if _, err := cc.TryPasswords(logins[0].User, []string{logins[0].Password}); err == nil {
				return errAccepted(logins[0])
			}
		}
		return nil
	default:
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: s.User, Password: s.Password, Version: version})
		if err != nil {
			return err
		}
		defer cc.Close()
		sess, err := cc.OpenSession()
		if err != nil {
			return err
		}
		if c.Exec && len(s.Commands) > 0 {
			if err := sshwire.RequestExec(sess, s.Commands[0]); err != nil {
				return err
			}
			return drainSSH(sess, c.Output)
		}
		if c.PTY {
			if err := sshwire.RequestPTY(sess, "xterm", 80, 24); err != nil {
				return err
			}
		}
		if err := sshwire.RequestShell(sess); err != nil {
			return err
		}
		if len(s.Commands) == 0 {
			return sess.Close()
		}
		// The writer races the drain on purpose (the pot echoes while the
		// client types); closing writeDone joins it before returning.
		writeDone := make(chan struct{})
		go func() {
			defer close(writeDone)
			for _, line := range append(append([]string(nil), s.Commands...), "exit") {
				if _, err := sess.Write([]byte(line + "\n")); err != nil {
					return
				}
			}
		}()
		err = drainSSH(sess, c.Output)
		<-writeDone
		return err
	}
}

// drainSSH copies the session's output to out (nil discards it) until
// the pot closes the channel or disconnects.
func drainSSH(sess io.Reader, out io.Writer) error {
	if out == nil {
		out = io.Discard
	}
	if _, err := io.Copy(out, sess); err != nil && !sshwire.IsGracefulDisconnect(err) {
		return err
	}
	return nil
}

func runTelnet(nc net.Conn, s Script, c Client) error {
	tc := telnet.NewConn(nc, false)
	switch s.Category {
	case analysis.NoCred:
		// Read the banner and leave without credentials; an immediate
		// close still reproduces a NO_CRED probe.
		buf := make([]byte, 64)
		if _, err := nc.Read(buf); err != nil && err != io.EOF {
			return err
		}
		return nil
	case analysis.FailLog:
		for _, l := range failedLogins(s, c) {
			ok, err := telnet.ClientLogin(tc, l.User, l.Password)
			if err != nil {
				return nil // server hung up on the strikes, as recorded sessions do
			}
			if ok {
				return errAccepted(l)
			}
		}
		return nil
	default:
		ok, err := telnet.ClientLogin(tc, s.User, s.Password)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("loadgen: login rejected for %s", s.User)
		}
		if c.Output != nil {
			return typeAtPrompts(tc, s.Commands, c.Output)
		}
		for _, cmd := range s.Commands {
			if err := tc.WriteString(cmd + "\r\n"); err != nil {
				return nil
			}
		}
		if err := tc.WriteString("exit\r\n"); err != nil {
			return err
		}
		// Nothing is read back, so nothing else would put the lines on
		// the wire before the caller hangs up.
		return tc.Flush()
	}
}

// typeAtPrompts is the Telnet shell session of a client that reads what
// it is shown: every line, and the closing exit, is typed at a prompt,
// and the pot's output goes to out. The pot answers exit by hanging up,
// so the session ends on the pot's EOF, not on the client's.
func typeAtPrompts(c *telnet.Conn, commands []string, out io.Writer) error {
	if err := copyToPrompt(c, out); err != nil || len(commands) == 0 {
		return err // NO_CMD sees the prompt, says nothing and leaves
	}
	lines := append(append([]string(nil), commands...), "exit")
	for i, line := range lines {
		if err := c.WriteString(line + "\r\n"); err != nil {
			return err
		}
		if err := copyToPrompt(c, out); err != nil {
			if err == io.EOF && i == len(lines)-1 {
				return nil
			}
			return err
		}
	}
	return nil
}

// copyToPrompt copies what the pot says to w, up to and including its
// next root prompt. ReadByte flushes the line the caller has just
// queued.
func copyToPrompt(c *telnet.Conn, w io.Writer) error {
	var (
		out []byte
		err error
	)
	for err == nil && !bytes.HasSuffix(out, []byte("# ")) {
		var b byte
		if b, err = c.ReadByte(); err == nil {
			out = append(out, b)
		}
	}
	if _, werr := w.Write(out); err == nil {
		err = werr
	}
	return err
}
