package farm

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"honeyfarm/internal/faults"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/netsim"
	"honeyfarm/internal/sshwire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitGoroutines fails the test if the goroutine count does not settle
// back to the baseline (small slack for runtime helpers).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// TestStopBoundedWithStalledClient is the regression test for the
// unbounded Stop hang: a client that connects and then goes silent used
// to block wg.Wait() until the pre-auth timeout (or forever, with long
// timeouts). Stop must now force-close it at the drain deadline.
func TestStopBoundedWithStalledClient(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	f, err := New(Config{
		Seed:      1,
		NumPots:   4,
		NumASes:   4,
		Countries: []string{"US", "SG", "DE", "JP"},
		Registry:  reg,
		// Long enough that only the forced drain can end the session.
		PreAuthTimeout: time.Hour,
		DrainTimeout:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	nc, err := f.Fabric().Dial("203.0.113.9", f.SSHAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Never write, never read, never close: the honeypot sits in its
	// pre-auth read. Give the farm a moment to accept the connection.
	waitFor(t, 2*time.Second, func() bool {
		return f.srv.Open() == 1
	}, "connection to be tracked")

	start := time.Now()
	f.Stop()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Stop took %v with a stalled client, want ~drain deadline", elapsed)
	}
	if st := f.Stats(); st.DroppedRecords < 1 {
		t.Errorf("stats = %+v, want the force-closed session counted as dropped", st)
	}
}

func TestStopIdempotent(t *testing.T) {
	f := smallFarm(t)
	f.Stop()
	f.Stop() // second call must neither panic nor hang
}

// TestKillAndSupervisorRestart: a killed pot unbinds, severs its
// connections, and comes back after backoff.
func TestKillAndSupervisorRestart(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	f, err := New(Config{
		Seed:      1,
		NumPots:   4,
		NumASes:   4,
		Countries: []string{"US", "SG", "DE", "JP"},
		Registry:  reg,
		Faults:    &faults.Plan{Seed: 9, BackoffBaseMS: 1, BackoffCapMS: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)

	// An in-flight connection must be severed by the kill.
	nc, err := f.Fabric().Dial("203.0.113.5", f.SSHAddr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	f.Kill(1)
	if f.PotUp(1) {
		t.Fatal("pot still up right after Kill")
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(nc)
		readErr <- err
	}()
	select {
	case <-readErr:
		// Severed (EOF surfaces as nil from ReadAll, reset as error);
		// either way the read did not hang.
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight conn not severed by Kill")
	}

	waitFor(t, 5*time.Second, func() bool { return f.PotUp(1) }, "supervisor restart")
	// The revived pot serves real sessions again.
	nc2, err := f.Fabric().Dial("203.0.113.6", f.SSHAddr(1))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc2, &sshwire.ClientConfig{SkipAuth: true})
	if err != nil {
		t.Fatalf("handshake after restart: %v", err)
	}
	cc.Close()

	st := f.Stats()
	if st.Kills < 1 || st.Restarts < 1 {
		t.Errorf("stats = %+v, want ≥1 kill and ≥1 restart", st)
	}
}

// TestOutageWindowsScheduled: planned outages take pots down at their
// first day and the supervisor revives them after the window.
func TestOutageWindowsScheduled(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	plan := &faults.Plan{
		Seed:          4,
		BackoffBaseMS: 1,
		BackoffCapMS:  20,
		Outages: []faults.Outage{
			{Pot: 0, FirstDay: 0, LastDay: 1},
			{Pot: 1, FirstDay: 1, LastDay: 2},
			{Pot: 2, FirstDay: 2, LastDay: 3},
		},
	}
	f, err := New(Config{
		Seed:      1,
		NumPots:   4,
		NumASes:   4,
		Countries: []string{"US", "SG", "DE", "JP"},
		Registry:  reg,
		Faults:    plan,
		DayLength: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)

	waitFor(t, 5*time.Second, func() bool { return f.Stats().Kills >= 3 },
		"all three outage windows to fire")
	waitFor(t, 5*time.Second, func() bool {
		return f.PotUp(0) && f.PotUp(1) && f.PotUp(2) && f.PotUp(3)
	}, "all pots back up after their windows")
	if st := f.Stats(); st.Restarts < 3 {
		t.Errorf("stats = %+v, want ≥3 restarts", st)
	}
}

// TestChaosFarm is the acceptance chaos run: ≥20% connection-fault rate,
// three pot outage windows, dozens of concurrent attackers, and at the
// end zero leaked goroutines with Stop inside the drain deadline.
func TestChaosFarm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	plan := &faults.Plan{
		Seed:          99,
		RefuseRate:    0.10,
		ResetRate:     0.07,
		StallRate:     0.05, // 22% total connection-fault rate
		JitterRate:    0.20,
		MaxJitterMS:   2,
		BackoffBaseMS: 1,
		BackoffCapMS:  20,
		Outages: []faults.Outage{
			{Pot: 1, FirstDay: 0, LastDay: 2},
			{Pot: 3, FirstDay: 1, LastDay: 3},
			{Pot: 5, FirstDay: 2, LastDay: 4},
		},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	drain := 2 * time.Second
	sink := &recorder{}
	f, err := New(Config{
		Seed:      7,
		NumPots:   8,
		NumASes:   6,
		Countries: []string{"US", "SG", "DE", "JP", "BR", "ZA"},
		Registry:  reg,
		Faults:    plan,
		DayLength: 25 * time.Millisecond,
		// Short pot timeouts so stalled sessions die on their own.
		PreAuthTimeout:  150 * time.Millisecond,
		PostAuthTimeout: 300 * time.Millisecond,
		DrainTimeout:    drain,
		Sink:            sink.ingest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	const attackers = 60
	var wg sync.WaitGroup
	var okSessions, failedDials, failedSessions int
	var cmu sync.Mutex
	for i := 0; i < attackers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pot := i % 8
			nc, err := f.Fabric().Dial("198.51.100.1", f.SSHAddr(pot))
			if err != nil {
				if !errors.Is(err, netsim.ErrConnectionRefused) {
					t.Errorf("attacker %d: unexpected dial error %v", i, err)
				}
				cmu.Lock()
				failedDials++
				cmu.Unlock()
				return
			}
			defer nc.Close()
			// A stalled connection must not hang the attacker either.
			_ = nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "x"})
			if err != nil {
				cmu.Lock()
				failedSessions++
				cmu.Unlock()
				return
			}
			if sess, err := cc.OpenSession(); err == nil {
				if err := sshwire.RequestExec(sess, "uname -a"); err == nil {
					_, _ = io.ReadAll(sess)
				}
			}
			cc.Close()
			cmu.Lock()
			okSessions++
			cmu.Unlock()
		}(i)
	}
	wg.Wait()

	// Let the outage windows run their course before shutdown.
	waitFor(t, 5*time.Second, func() bool { return f.Stats().Kills >= 3 },
		"outage windows to fire")

	start := time.Now()
	f.Stop()
	if elapsed := time.Since(start); elapsed > drain+2*time.Second {
		t.Errorf("Stop took %v, want within drain deadline %v (+margin)", elapsed, drain)
	}

	st := f.Stats()
	if st.ConnFaults == 0 {
		t.Error("no connection faults injected at 22% configured rate")
	}
	if st.Kills < 3 {
		t.Errorf("kills = %d, want ≥3 (planned outages)", st.Kills)
	}
	if okSessions == 0 {
		t.Error("no attacker session ever succeeded under 22% faults")
	}
	if sink.len() == 0 {
		t.Error("collector empty: healthy sessions were lost")
	}
	t.Logf("chaos: ok=%d refusedDials=%d failedSessions=%d stats=%+v collected=%d",
		okSessions, failedDials, failedSessions, st, sink.len())

	waitGoroutines(t, baseline)
}
