package loadgen

import (
	"net"
	"testing"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/farm"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/netsim"
	"honeyfarm/internal/workload"
)

// TestReplayAgreement generates a record-level dataset, replays a sample
// over the wire — every sampled record one arrival whose script is
// FromRecord's, driven by Run through the farm's fabric — and checks
// that the wire-level honeypots re-derive the same classifications: the
// central consistency claim between the two execution paths.
func TestReplayAgreement(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	res, err := workload.Generate(workload.Config{
		Seed:          3,
		TotalSessions: 3000,
		Days:          20,
		NumPots:       10,
		Registry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := farm.New(farm.Config{
		Seed:      3,
		NumPots:   10,
		NumASes:   10,
		Countries: geo.HoneyfarmCountries[:10],
		Registry:  reg,
		Fetch:     func(uri string) ([]byte, error) { return []byte("payload:" + uri), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	const stride = 40
	plan := &Plan{Targets: make([]Target, 10)}
	for i := range plan.Targets {
		plan.Targets[i].Pot = i
	}
	// byCategory counts the *source* records replayed per category.
	var byCategory [analysis.NumCategories]int
	recs := res.Store.Records()
	for i := 0; i < len(recs); i += stride {
		plan.Arrivals = append(plan.Arrivals, Arrival{Target: recs[i].HoneypotID, Script: FromRecord(recs[i])})
		byCategory[analysis.Classify(recs[i])]++
	}
	run, err := Run(Config{
		Plan: plan,
		Dial: func(t Target, ssh bool) (net.Conn, error) {
			port := 23
			if ssh {
				port = 22
			}
			return f.Fabric().Dial("198.51.100.7", netsim.Addr{IP: f.SSHAddr(t.Pot).IP, Port: port})
		},
		Concurrency: 8,
		Now:         time.Now,
		Sleep:       time.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayed, failed := run.Started, run.Started-run.Completed
	if replayed < 50 {
		t.Fatalf("replayed only %d sessions", replayed)
	}
	if failed > replayed/10 {
		t.Fatalf("replay errors: %d of %d (%v)", failed, replayed, run.Errors)
	}

	// Wait for the farm to flush its records.
	deadline := time.Now().Add(15 * time.Second)
	for f.Collector().Len() < replayed-failed && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}

	// Compare classification distributions: every replayed category must
	// appear on the wire side with a similar share (NO_CMD replays end
	// client-closed rather than timed out, but classify identically).
	var wire [analysis.NumCategories]int
	for _, rec := range f.Collector().Records() {
		wire[analysis.Classify(rec)]++
	}
	t.Logf("replayed %v with errors %v, recorded %v", byCategory, run.Errors, wire)
	for c := analysis.Category(0); c < analysis.NumCategories; c++ {
		if byCategory[c] > 3 && wire[c] == 0 {
			t.Errorf("category %v: %d replayed but none recorded on the wire", c, byCategory[c])
		}
	}
	// Aggregate counts line up within the error budget.
	total := 0
	for _, n := range wire {
		total += n
	}
	if total < replayed-failed {
		t.Errorf("wire records = %d, want ≥ %d", total, replayed-failed)
	}
	// CMD replays must reproduce commands; CMD+URI replays must reproduce
	// URIs (the honeypot's shell re-extracts them from the typed input).
	sawCmd, sawURI, sawFile := false, false, false
	for _, rec := range f.Collector().Records() {
		switch analysis.Classify(rec) {
		case analysis.Cmd:
			sawCmd = true
		case analysis.CmdURI:
			sawURI = true
		}
		if len(rec.Files) > 0 {
			sawFile = true
		}
	}
	if !sawCmd {
		t.Error("no wire-level CMD sessions")
	}
	if byCategory[analysis.CmdURI] > 0 && !sawURI {
		t.Error("no wire-level CMD+URI sessions despite replaying some")
	}
	if byCategory[analysis.CmdURI] > 0 && !sawFile {
		t.Error("URI replays should produce downloaded-file hashes")
	}
}
