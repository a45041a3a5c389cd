// Command loadgen is the open-loop load harness: it derives a
// deterministic arrival schedule from a seed (exponential
// inter-arrivals at -rate for -duration, session scripts drawn from
// the paper's Table 1 mix) and replays it as real SSH/Telnet traffic
// against a shard fleet's wire front or against an in-process netsim
// farm, then reports offered vs achieved rate, latency quantiles,
// schedule slip, and an error taxonomy as JSON.
//
// Against a live fleet (addr files written by `shard -wire-addr-file`):
//
//	loadgen -seed 1 -rate 40 -duration 3s -targets s0.addrs,s1.addrs \
//	        -check http://H0/metrics,http://H1/metrics
//
// Self-contained (netsim farm in-process, /metrics mounted):
//
//	loadgen -seed 1 -rate 200 -duration 5s -self-pots 8 -metrics-addr 127.0.0.1:0
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
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/daemon"
	"honeyfarm/internal/farm"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/loadgen"
	"honeyfarm/internal/metrics"
	"honeyfarm/internal/netsim"
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
	selfPots := flag.Int("self-pots", 0, "run an in-process netsim farm with this many pots instead of external targets")
	metricsAddr := flag.String("metrics-addr", "", "with -self-pots: mount the farm supervisor's /metrics on this address")
	checkFlag := flag.String("check", "", "comma-separated /metrics URLs; reconcile completed count against the summed wire-accepted counter")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	planOnly := flag.Bool("plan-only", false, "emit the deterministic plan summary and exit without driving load")
	requireClean := flag.Bool("require-clean", false, "exit 1 on any session error or reconciliation mismatch")
	flag.Parse()

	var (
		targets []loadgen.Target
		dial    loadgen.Dialer
		f       *farm.Farm
	)
	switch {
	case *selfPots > 0:
		var err error
		f, targets, dial, err = startSelfFarm(*seed, *selfPots)
		if err != nil {
			log.Fatalf("loadgen: self-farm: %v", err)
		}
		defer f.Stop()
		if *metricsAddr != "" {
			reg := metrics.NewRegistry()
			farm.RegisterFarmMetrics(reg, f)
			ml, err := daemon.Listen(*metricsAddr, "", daemon.Mux("loadgen", reg, http.NotFoundHandler()))
			if err != nil {
				f.Stop()
				log.Fatalf("loadgen: metrics listener: %v", err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				if err := ml.Drain(ctx); err != nil {
					log.Printf("loadgen: metrics listener: %v", err)
				}
			}()
			log.Printf("loadgen: farm /metrics on http://%s/metrics", ml.Addr())
		}
	case *targetsFlag != "":
		var err error
		targets, err = readTargets(strings.Split(*targetsFlag, ","))
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		dial = loadgen.TCPDialer(5 * time.Second)
	default:
		fmt.Fprintln(os.Stderr, "usage: loadgen -targets <addr-files> | -self-pots N  [-rate R -duration D]")
		os.Exit(2)
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
		Dial:           dial,
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
		check, err := loadgen.Reconcile(strings.Split(*checkFlag, ","),
			"honeyfarm_wire_sessions_accepted_total",
			float64(res.Completed), 50, time.Sleep)
		if err != nil {
			log.Fatalf("loadgen: reconcile: %v", err)
		}
		doc.Reconciliation = &check
		clean = clean && check.Match
	}
	if f != nil {
		// Self-farm reconciliation is in-process: the supervisor's
		// accepted counter must equal what the driver completed.
		accepted := waitFarmAccepted(f, res.Completed)
		doc.Reconciliation = &loadgen.CheckResult{
			Metric: "honeyfarm_farm_sessions_accepted_total",
			Want:   float64(res.Completed),
			Got:    float64(accepted),
			Match:  accepted == res.Completed,
		}
		clean = clean && doc.Reconciliation.Match
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

// startSelfFarm runs an in-process netsim farm and returns its targets
// and fabric dialer.
func startSelfFarm(seed int64, pots int) (*farm.Farm, []loadgen.Target, loadgen.Dialer, error) {
	f, err := farm.New(farm.Config{
		Seed:     seed,
		NumPots:  pots,
		Registry: geo.NewRegistry(geo.Config{Seed: seed}),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := f.Start(); err != nil {
		return nil, nil, nil, err
	}
	targets := make([]loadgen.Target, pots)
	for i := 0; i < pots; i++ {
		ssh, tel := f.SSHAddr(i), f.TelnetAddr(i)
		targets[i] = loadgen.Target{
			Pot:        i,
			SSHAddr:    net.JoinHostPort(ssh.IP, strconv.Itoa(ssh.Port)),
			TelnetAddr: net.JoinHostPort(tel.IP, strconv.Itoa(tel.Port)),
		}
	}
	// Attacker source IPs rotate through a documentation block; the
	// fabric only needs them to be distinct-ish, not meaningful.
	var srcSeq atomic.Uint64
	dial := func(t loadgen.Target, ssh bool) (net.Conn, error) {
		addr := t.SSHAddr
		if !ssh {
			addr = t.TelnetAddr
		}
		host, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, err
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			return nil, err
		}
		src := fmt.Sprintf("198.51.100.%d", srcSeq.Add(1)%254+1)
		return f.Fabric().Dial(src, netsim.Addr{IP: host, Port: port})
	}
	return f, targets, dial, nil
}

// waitFarmAccepted polls the supervisor's accepted counter up to a
// short deadline: records trail the last wire byte by the session
// handler's teardown.
func waitFarmAccepted(f *farm.Farm, want int) int {
	accepted := 0
	for i := 0; i < 100; i++ {
		accepted = f.Stats().Accepted
		if accepted >= want {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return accepted
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
