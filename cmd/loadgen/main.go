// Command loadgen is the open-loop load harness: it derives a
// deterministic arrival schedule from a seed (exponential
// inter-arrivals at -rate for -duration, session scripts drawn from
// the paper's Table 1 mix) and replays it as real SSH/Telnet traffic
// against the wire fronts of a `shard -wire` fleet, whose pot address
// tables (written by `shard -wire-addr-file`) are its -targets, then
// reports offered vs achieved rate, latency quantiles, schedule slip,
// and an error taxonomy as JSON:
//
//	loadgen -seed 1 -rate 40 -duration 3s -targets s0.addrs,s1.addrs \
//	        -check http://H0/metrics,http://H1/metrics
//
// -plan-only prints the deterministic plan summary and exits: two runs
// with equal flags emit byte-identical output, which is how the smoke
// gate proves the offered load is reproducible.
//
// With -check, the run's completed count is reconciled against the
// sum of honeyfarm_wire_sessions_accepted_total across the given
// /metrics URLs; -require-clean turns any session error or
// reconciliation mismatch into a nonzero exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/loadgen"
)

// wallNow is the harness's single wall-clock tap: the arrival schedule
// is seed-derived, only the driver's pacing and measurements read it.
//
//lint:ignore nondeterminism the driver paces and measures real wall time; the schedule itself is seed-derived
var wallNow = time.Now

func main() {
	seed := flag.Int64("seed", 1, "schedule seed; equal seeds offer identical load")
	rate := flag.Float64("rate", 50, "offered load in sessions per second")
	duration := flag.Duration("duration", 3*time.Second, "arrival window")
	concurrency := flag.Int("concurrency", 64, "max simultaneously open sessions")
	sessionTimeout := flag.Duration("session-timeout", 10*time.Second, "per-session wall-time cap")
	targetsFlag := flag.String("targets", "", "comma-separated wire addr files (lines: <pot> <ssh-addr> <telnet-addr>)")
	checkFlag := flag.String("check", "", "comma-separated /metrics URLs; reconcile completed count against the summed wire-accepted counter")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	planOnly := flag.Bool("plan-only", false, "emit the deterministic plan summary and exit without driving load")
	requireClean := flag.Bool("require-clean", false, "exit 1 on any session error or reconciliation mismatch")
	flag.Parse()

	if *targetsFlag == "" {
		fmt.Fprintln(os.Stderr, "usage: loadgen -targets <addr-files> [-rate R -duration D]")
		os.Exit(2)
	}
	targets, err := readTargets(strings.Split(*targetsFlag, ","))
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}

	plan, err := loadgen.BuildPlan(loadgen.PlanConfig{
		Seed: *seed, Rate: *rate, Duration: *duration, Targets: targets,
	})
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}

	if *planOnly {
		emit(*out, mustJSON(loadgen.Summarize(plan)))
		return
	}

	res, err := loadgen.Run(loadgen.Config{
		Plan:           plan,
		Dial:           loadgen.TCPDialer(5 * time.Second),
		Concurrency:    *concurrency,
		SessionTimeout: *sessionTimeout,
		Now:            wallNow,
		Sleep:          time.Sleep,
	})
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	report := loadgen.BuildReport(res)

	// The output document: the run report, plus the reconciliation
	// verdict when a cross-check was requested.
	doc := struct {
		*loadgen.Report
		Reconciliation *loadgen.CheckResult `json:"reconciliation,omitempty"`
	}{Report: report}

	clean := len(report.Errors) == 0
	if *checkFlag != "" {
		check, err := loadgen.Reconcile(strings.Split(*checkFlag, ","), float64(res.Completed), 50, time.Sleep)
		if err != nil {
			log.Fatalf("loadgen: reconcile: %v", err)
		}
		doc.Reconciliation = &check
		clean = clean && check.Match
	}

	emit(*out, mustJSON(doc))
	if *requireClean && !clean {
		log.Fatalf("loadgen: run not clean: errors=%v reconciliation=%+v", report.Errors, doc.Reconciliation)
	}
}

// readTargets parses wire addr files ("<pot> <ssh-addr> <telnet-addr>"
// per line) into the plan's target list.
func readTargets(paths []string) ([]loadgen.Target, error) {
	var ts []loadgen.Target
	for _, p := range paths {
		b, err := os.ReadFile(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return nil, fmt.Errorf("%s: malformed addr line %q", p, line)
			}
			pot, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("%s: bad pot id in %q", p, line)
			}
			ts = append(ts, loadgen.Target{Pot: pot, SSHAddr: fields[1], TelnetAddr: fields[2]})
		}
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("no targets in %v", paths)
	}
	return ts, nil
}

// mustJSON renders v as stable indented JSON.
func mustJSON(v any) []byte {
	b, err := loadgen.MarshalIndent(v)
	if err != nil {
		log.Fatalf("loadgen: marshal: %v", err)
	}
	return b
}

// emit writes the report to path (atomically — scripts read it the
// moment the process exits) or stdout.
func emit(path string, b []byte) {
	if path == "" {
		if _, err := os.Stdout.Write(b); err != nil {
			log.Fatalf("loadgen: stdout: %v", err)
		}
		return
	}
	if err := atomicio.WriteFileBytes(path, b); err != nil {
		log.Fatalf("loadgen: write %s: %v", path, err)
	}
}
