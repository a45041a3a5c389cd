package loadgen

// End-to-end: the open-loop driver against a live wire front over real
// TCP, with the count reconciliation the check.sh gate scripts —
// loadgen's completed count must equal the collector's accepted count
// and the engine's ingested sequence.

import (
	"net/http/httptest"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
)

func TestDriverAgainstWireFront(t *testing.T) {
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: 4})
	front, err := shard.NewWireFront(shard.WireConfig{
		Shards: 1, Index: 0, NumPots: 4, Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	targets := make([]Target, 0, 4)
	for _, p := range front.Pots() {
		targets = append(targets, Target{Pot: p.ID, SSHAddr: p.SSHAddr, TelnetAddr: p.TelnetAddr})
	}
	plan, err := BuildPlan(PlanConfig{Seed: 11, Rate: 60, Duration: 1 * time.Second, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Plan:        plan,
		Dial:        TCPDialer(5 * time.Second),
		Concurrency: 16,
		Now:         time.Now,
		Sleep:       time.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(plan.Arrivals) || len(res.Errors) != 0 {
		t.Fatalf("completed %d/%d, errors %v", res.Completed, len(plan.Arrivals), res.Errors)
	}

	// The fleet must have persisted exactly what the generator drove:
	// records can trail the last wire byte briefly, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && front.Accepted() != uint64(res.Completed) {
		time.Sleep(10 * time.Millisecond)
	}
	if front.Accepted() != uint64(res.Completed) {
		t.Fatalf("front accepted %d, loadgen completed %d", front.Accepted(), res.Completed)
	}
	if eng.Seq() != uint64(res.Completed) {
		t.Fatalf("engine seq %d, loadgen completed %d", eng.Seq(), res.Completed)
	}

	// Reconcile through the real /metrics surface, as the gate does.
	srv := query.NewServer(query.ServerConfig{Source: eng})
	reg := shard.BuildCollectorRegistry(eng, nil, front, srv, 4)
	ms := httptest.NewServer(reg.Handler())
	defer ms.Close()
	check, err := Reconcile([]string{ms.URL}, float64(res.Completed), 10, time.Sleep)
	if err != nil {
		t.Fatal(err)
	}
	if !check.Match {
		t.Fatalf("reconciliation failed: %+v", check)
	}

	rep := BuildReport(res)
	if rep.AchievedRate <= 0 || rep.PlanSHA256 == "" {
		t.Fatalf("degenerate report: %+v", rep)
	}
}
