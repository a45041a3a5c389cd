package shard_test

import (
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/telnet"
	"honeyfarm/internal/wal"
)

// newWireFront builds a front over a fresh engine (and optional WAL
// dir) for a 2-shard/4-pot fleet, index 0 — it owns pots 0 and 2.
func newWireFront(t *testing.T, walDir string) (*shard.WireFront, *query.Engine, *wal.Log) {
	t.Helper()
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: 4})
	var wlog *wal.Log
	if walDir != "" {
		var err error
		wlog, _, err = wal.Open(walDir, wal.Options{Epoch: honeyfarm.DefaultEpoch})
		if err != nil {
			t.Fatal(err)
		}
	}
	w, err := shard.NewWireFront(shard.WireConfig{
		Shards: 2, Index: 0, NumPots: 4,
		Engine: eng,
		WAL:    wlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, eng, wlog
}

func TestWireFrontSessions(t *testing.T) {
	base := runtime.NumGoroutine()
	w, eng, wlog := newWireFront(t, t.TempDir())

	pots := w.Pots()
	if len(pots) != 2 || pots[0].ID != 0 || pots[1].ID != 2 {
		t.Fatalf("expected pots [0 2], got %+v", pots)
	}

	// SSH session with a shell command against pot 0.
	nc, err := net.Dial("tcp", pots[0].SSHAddr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "wire-test"})
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
	if _, err := sess.Write([]byte("uname -a\nexit\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, sess); err != nil && !sshwire.IsGracefulDisconnect(err) {
		t.Fatal(err)
	}
	cc.Close()
	nc.Close()

	// Telnet login against pot 2.
	nc2, err := net.Dial("tcp", pots[1].TelnetAddr)
	if err != nil {
		t.Fatal(err)
	}
	tc := telnet.NewConn(nc2, false)
	ok, err := telnet.ClientLogin(tc, "root", "wire-test")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("telnet login rejected")
	}
	if err := tc.WriteString("exit\r\n"); err != nil {
		t.Fatal(err)
	}
	nc2.Close()

	waitFor(t, 5*time.Second, func() bool { return w.Accepted() == 2 }, "2 accepted wire sessions")
	if w.Refused() != 0 {
		t.Fatalf("refused = %d, want 0", w.Refused())
	}
	if eng.Seq() != 2 {
		t.Fatalf("engine seq = %d, want 2", eng.Seq())
	}
	// Every accepted record was appended before it was ingested.
	if h := wlog.Health(); h.AppendedRecords != 2 {
		t.Fatalf("wal appended %d records, want 2", h.AppendedRecords)
	}

	// The wire rows show up in a collector registry, attributed per pot.
	srv := query.NewServer(query.ServerConfig{Source: eng})
	reg := shard.BuildCollectorRegistry(eng, wlog.Health, w, srv, 4)
	out := string(reg.Render())
	for _, want := range []string{
		`honeyfarm_wire_sessions_accepted_total 2`,
		`honeyfarm_wire_sessions_refused_total 0`,
		`honeyfarm_wire_pot_sessions_total{pot="0"} 1`,
		`honeyfarm_wire_pot_sessions_total{pot="2"} 1`,
		`honeyfarm_wal_append_records_total 2`,
		`honeyfarm_ingested_records_total 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q", want)
		}
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestWireFrontRefusesUnpersisted: a disk-full window under a live
// collector is count-and-drop, not crash. A session whose record the
// WAL refuses (disk full, after one retry) is counted as refused and
// never reaches the engine; once the disk heals, the next append probes
// a fresh segment and the next session is accepted and ingested,
// without a restart. Recovery reads back exactly the accepted records
// plus a gap frame for the refused one (recovered ≡ acknowledged), and
// Close leaves no goroutine behind.
func TestWireFrontRefusesUnpersisted(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	fsys, err := iofault.New(iofault.OS, iofault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	wlog, _, err := wal.Open(dir, wal.Options{
		Epoch: honeyfarm.DefaultEpoch, FS: fsys, ProbeEvery: 1,
		RetryAttempts: 2,
		RetryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: 4})
	w, err := shard.NewWireFront(shard.WireConfig{
		Shards: 2, Index: 0, NumPots: 4, Engine: eng, WAL: wlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	// probe runs a handshake-only SSH session, which yields one record.
	probe := func() {
		t.Helper()
		nc, err := net.Dial("tcp", w.Pots()[0].SSHAddr)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true})
		if err != nil {
			t.Fatal(err)
		}
		cc.Close()
		nc.Close()
	}

	// The barrier lets the segment's opening sync land before the
	// outage, so every op the disk refuses below is the append's.
	if err := wlog.Sync(); err != nil {
		t.Fatal(err)
	}
	fsys.Break(syscall.ENOSPC)
	probe()
	waitFor(t, 5*time.Second, func() bool { return w.Refused() == 1 }, "refused session")
	if w.Accepted() != 0 || eng.Seq() != 0 {
		t.Fatalf("accepted %d, engine seq %d after a refused append, want 0 and 0", w.Accepted(), eng.Seq())
	}
	// The write, its one retry, and the seal the log tries as it
	// degrades.
	if n := fsys.Stats().BrokenErrs; n != 3 {
		t.Errorf("disk refused %d ops, want 3: a write, its retry and the seal", n)
	}
	if h := wlog.Health(); !h.Degraded || !strings.Contains(h.Reason, syscall.ENOSPC.Error()) {
		t.Fatalf("WAL health during the outage = %+v, want degraded by ENOSPC", h)
	}
	srv := query.NewServer(query.ServerConfig{Source: eng})
	reg := shard.BuildCollectorRegistry(eng, wlog.Health, w, srv, 4)
	if out := string(reg.Render()); !strings.Contains(out, "honeyfarm_wire_sessions_refused_total 1\n") {
		t.Errorf("render missing the refused session:\n%s", out)
	}

	fsys.Heal()
	probe()
	waitFor(t, 5*time.Second, func() bool { return w.Accepted() == 1 }, "accepted session after heal")
	if eng.Seq() != 1 || w.Refused() != 1 {
		t.Fatalf("engine seq %d, refused %d after heal, want 1 and 1", eng.Seq(), w.Refused())
	}
	if h := wlog.Health(); h.Degraded || h.Recoveries != 1 || h.DroppedRecords != 1 {
		t.Fatalf("WAL health after heal = %+v, want recovered with 1 dropped record", h)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)

	_, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(rec.Records()); got != w.Accepted() {
		t.Fatalf("recovered %d records, accepted %d", got, w.Accepted())
	}
	if len(rec.Gaps) != 1 || rec.Gaps[0].Records != 1 || rec.Gaps[0].Reason != "append: enospc" {
		t.Fatalf("recovered gaps %+v, want one append:enospc gap of 1 record", rec.Gaps)
	}
}

func TestWireFrontAddrFile(t *testing.T) {
	w, _, _ := newWireFront(t, "")
	defer w.Close()
	path := t.TempDir() + "/addrs"
	if err := w.WriteAddrFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 addr lines, got %q", lines)
	}
	for _, ln := range lines {
		f := strings.Fields(ln)
		if len(f) != 3 {
			t.Fatalf("malformed addr line %q", ln)
		}
		for _, addr := range f[1:] {
			if _, _, err := net.SplitHostPort(addr); err != nil {
				t.Fatalf("bad addr %q: %v", addr, err)
			}
		}
	}
}

func TestWireFrontNoCredProbe(t *testing.T) {
	w, eng, _ := newWireFront(t, "")
	defer w.Close()
	pots := w.Pots()

	// A handshake-only probe (connect, version exchange, disconnect)
	// still yields a NO_CRED record.
	nc, err := net.Dial("tcp", pots[0].SSHAddr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true})
	if err != nil {
		t.Fatal(err)
	}
	cc.Close()
	nc.Close()

	waitFor(t, 5*time.Second, func() bool { return w.Accepted() == 1 }, "probe recorded")
	if eng.Seq() != 1 {
		t.Fatalf("engine seq = %d, want 1", eng.Seq())
	}
}
