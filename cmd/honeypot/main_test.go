package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/telnet"
)

// TestHoneypotHelper runs main with the arguments in
// HONEYPOT_HELPER_ARGS; it is the child process of
// TestSIGTERMDrainsSession and skips otherwise.
func TestHoneypotHelper(t *testing.T) {
	args := os.Getenv("HONEYPOT_HELPER_ARGS")
	if args == "" {
		t.Skip("helper process for TestSIGTERMDrainsSession")
	}
	os.Args = append([]string{"honeypot"}, strings.Fields(args)...)
	main()
}

// TestSIGTERMDrainsSession: SIGTERM with a logged-in Telnet session in
// flight must drain — the session is force-closed at the drain bound and
// recorded — and exit 0, not kill the process with the record unwritten.
func TestSIGTERMDrainsSession(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess drain test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "sessions.jsonl")
	cmd := exec.Command(exe, "-test.run=TestHoneypotHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"HONEYPOT_HELPER_ARGS=-ssh 127.0.0.1:0 -telnet 127.0.0.1:0 -log "+logPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	var addr string
	for addr == "" && sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "honeypot: telnet on "); ok {
			addr = a
		}
	}
	// Keep stderr drained so the child never blocks on it; Wait follows
	// the last read.
	var rest bytes.Buffer
	var waitErr error
	exited := make(chan struct{})
	go func() {
		for sc.Scan() {
			rest.WriteString(sc.Text() + "\n")
		}
		waitErr = cmd.Wait()
		close(exited)
	}()
	defer func() {
		select {
		case <-exited:
		default:
			_ = cmd.Process.Kill()
			<-exited
		}
	}()
	if addr == "" {
		t.Fatal("child never reported its telnet address")
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if ok, err := telnet.ClientLogin(telnet.NewConn(nc, false), "root", "1234"); err != nil || !ok {
		t.Fatalf("login ok=%v err=%v", ok, err)
	}

	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	bound := honeypot.DefaultDrainTimeout + 2*time.Second
	select {
	case <-exited:
		if waitErr != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", waitErr, rest.String())
		}
	case <-time.After(bound):
		t.Fatalf("no exit within %v of SIGTERM", bound)
	}
	t.Logf("exited %v after SIGTERM", time.Since(start).Round(time.Millisecond))

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []honeypot.SessionRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r honeypot.SessionRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("log: %v", err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 1 || recs[0].Protocol != honeypot.Telnet || !recs[0].LoggedIn() {
		t.Fatalf("log holds %d records (%+v), want the one logged-in telnet session", len(recs), recs)
	}
}
