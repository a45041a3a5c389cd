package loadgen

import (
	"fmt"
	"net"
	"testing"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/netsim"
	"honeyfarm/internal/store"
	"honeyfarm/internal/workload"
)

// TestReplayAgreement generates a record-level dataset, replays a sample
// over the wire — every sampled record one arrival whose script is
// FromRecord's, driven by Run through a fabric to ten pots served by one
// honeypot.Server — and checks that the wire-level honeypots re-derive
// the same classifications: the central consistency claim between the
// two execution paths.
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

	// Every pot's sink records its wire-side sessions here.
	wireRecs := store.New(res.Store.Epoch())
	fabric := netsim.NewFabric()
	var srv honeypot.Server
	defer srv.Close()
	potIP := func(pot int) string { return fmt.Sprintf("10.0.0.%d", pot+1) }
	for id := 0; id < 10; id++ {
		pot, err := honeypot.New(honeypot.Config{
			ID:    id,
			Fetch: func(uri string) ([]byte, error) { return []byte("payload:" + uri), nil },
			Sink:  wireRecs.Add,
		})
		if err != nil {
			t.Fatal(err)
		}
		for port, handle := range map[int]func(net.Conn){22: pot.ServeSSH, 23: pot.ServeTelnet} {
			ln, err := fabric.Listen(potIP(id), port)
			if err != nil {
				t.Fatal(err)
			}
			srv.Serve(ln, handle)
		}
	}

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
			return fabric.Dial("198.51.100.7", netsim.Addr{IP: potIP(t.Pot), Port: port})
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

	// Wait for the pots to flush their records.
	deadline := time.Now().Add(15 * time.Second)
	for wireRecs.Len() < replayed-failed && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}

	// Compare classification distributions: every replayed category must
	// appear on the wire side with a similar share (NO_CMD replays end
	// client-closed rather than timed out, but classify identically).
	var wire [analysis.NumCategories]int
	for _, rec := range wireRecs.Records() {
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
	for _, rec := range wireRecs.Records() {
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
