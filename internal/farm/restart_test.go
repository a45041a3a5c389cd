package farm

// Supervision: each takedown starts one restart goroutine on the farm's
// own wait group, which waits out backoff and hold, retries a failed
// rebind, bows out when superseded and ends with Stop.

import (
	"runtime"
	"testing"
	"time"

	"honeyfarm/internal/faults"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/sshwire"
)

// faultFarm starts a four-pot farm under plan, stopped at cleanup.
func faultFarm(t *testing.T, plan *faults.Plan, dayLength time.Duration) *Farm {
	t.Helper()
	f, err := New(Config{
		Seed:      1,
		NumPots:   4,
		NumASes:   4,
		Countries: []string{"US", "SG", "DE", "JP"},
		Registry:  geo.NewRegistry(geo.Config{Seed: 1}),
		Faults:    plan,
		DayLength: dayLength,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// hourBackoff parks every restart attempt for half an hour or more.
var hourBackoff = &faults.Plan{Seed: 1, BackoffBaseMS: 3_600_000, BackoffCapMS: 3_600_000}

// TestOverlappingOutagesHoldUntilLastEnds: a window that fires while
// its pot is already down extends the hold to its own end — the pot
// stays down as long as Plan.PotDown says it is — and is not counted as
// a second takedown.
func TestOverlappingOutagesHoldUntilLastEnds(t *testing.T) {
	const day = 100 * time.Millisecond
	plan := &faults.Plan{Seed: 4, BackoffBaseMS: 1, BackoffCapMS: 20, Outages: []faults.Outage{
		{Pot: 0, FirstDay: 0, LastDay: 1},
		{Pot: 0, FirstDay: 1, LastDay: 3},
	}}
	start := time.Now()
	f := faultFarm(t, plan, day)
	waitFor(t, 5*time.Second, func() bool { return f.Stats().Kills >= 1 }, "the first window to fire")
	waitFor(t, 5*time.Second, func() bool { return f.PotUp(0) }, "pot 0 back up")
	// The second window fires no earlier than day 1 and holds for three
	// days from then.
	if up := time.Since(start); up < 4*day {
		t.Errorf("pot 0 back up after %v, before the later window's end at %v", up, 4*day)
	}
	if st := f.Stats(); st.Kills != 1 || st.Restarts != 1 {
		t.Errorf("stats = %+v, want 1 kill and 1 restart", st)
	}
}

// TestKillGenerationDedup: a second Kill while a restart is pending is
// not a second takedown, and an attempt left from a superseded takedown
// does not rebind; exactly one rebind follows.
func TestKillGenerationDedup(t *testing.T) {
	f := faultFarm(t, hourBackoff, 0)
	f.Kill(0)
	f.Kill(0)
	f.mu.Lock()
	gen := f.states[0].gen
	f.mu.Unlock()
	if st := f.Stats(); st.Kills != 1 {
		t.Fatalf("stats = %+v after a second Kill of a down pot, want 1 kill", st)
	}
	if !f.tryRestart(0, gen-1) {
		t.Error("a superseded attempt did not bow out")
	}
	if f.PotUp(0) {
		t.Fatal("a superseded attempt rebound the pot")
	}
	if !f.tryRestart(0, gen) || !f.PotUp(0) {
		t.Fatal("the current takedown's attempt did not rebind the pot")
	}
	if st := f.Stats(); st.Restarts != 1 {
		t.Errorf("stats = %+v, want exactly 1 restart", st)
	}
}

// TestKillRebindRetries: a rebind that fails because the pot's SSH port
// is taken is retried on the next backoff step, and the pot comes back
// once the port is free.
func TestKillRebindRetries(t *testing.T) {
	f := faultFarm(t, &faults.Plan{Seed: 9, BackoffBaseMS: 5, BackoffCapMS: 20}, 0)
	addr := f.SSHAddr(0)
	var restarts int
	waitFor(t, 5*time.Second, func() bool {
		// The restart may win the race for the port; kill it again.
		f.Kill(0)
		ln, err := f.Fabric().Listen(addr.IP, addr.Port)
		if err != nil {
			return false
		}
		restarts = f.Stats().Restarts
		time.Sleep(100 * time.Millisecond) // several failed attempts
		if f.PotUp(0) {
			t.Fatal("pot 0 up while its SSH port is held")
		}
		_ = ln.Close()
		return true
	}, "pot 0's SSH port held while it is down")
	waitFor(t, 5*time.Second, func() bool { return f.PotUp(0) }, "pot 0 back up once its port is free")
	if st := f.Stats(); st.Restarts != restarts+1 {
		t.Errorf("stats = %+v, want restarts %d", st, restarts+1)
	}
	nc, err := f.Fabric().Dial("203.0.113.6", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true})
	if err != nil {
		t.Fatalf("handshake after restart: %v", err)
	}
	cc.Close()
}

// TestStopJoinsPendingRestart: Stop returns promptly while a restart
// waits on an hour-long backoff, and leaves no goroutine behind.
func TestStopJoinsPendingRestart(t *testing.T) {
	base := runtime.NumGoroutine()
	f := faultFarm(t, hourBackoff, 0)
	f.Kill(1)
	stopped := make(chan struct{})
	go func() { f.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return while a restart waited on its backoff")
	}
	if f.PotUp(1) {
		t.Error("pot restarted across Stop")
	}
	waitGoroutines(t, base)
}
