// Command bench is the repository's benchmark: four workloads over the
// session pipeline, each run in a process of its own, each checking
// its outputs, with end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md beside this file
// and BENCHMARK.json at the repository root.
//
//	go run ./bench --workload wire_table1 --seed 1 --seconds 15 --trace 0
//	go run ./bench -runs 5 -out bench/out/a.json     every workload, both ways
//	go run ./bench -agree bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
)

// measured is one metric as printed: its value with all digits, and
// its unit.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a workload run prints.
type report struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// runRecord is one workload run in a result set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Report   report `json:"report"`
}

// resultSet is what an all-workloads run writes and -agree reads.
type resultSet struct {
	Env  map[string]string `json:"env"`
	Runs []runRecord       `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "workload seed; drives loadgen.BuildPlan, the script plans and honeyfarm.Simulate")
		seconds  = flag.Float64("seconds", 15, "how long the measured phase runs")
		trace    = flag.Int("trace", 0, "0: untraced, print end-to-end metrics; 1: traced, print per-layer metrics")
		runs     = flag.Int("runs", 1, "all-workloads mode: runs per workload and trace setting, on seeds seed, seed+1, ...")
		out      = flag.String("out", filepath.Join("bench", "out", "results.json"), "all-workloads mode: where the result set goes")
		agree    = flag.Bool("agree", false, "compare two result sets (two arguments) against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	var err error
	switch {
	case *agree:
		err = agreeMain(flag.Args())
	case *workload != "":
		err = oneMain(runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
			outDir: filepath.Join("bench", "out"), sz: fullSizes,
		})
	default:
		err = allMain(*seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// toReport picks the run's metric set and attaches the units.
func toReport(res *result, trace bool) (report, error) {
	defs, vals := endToEnd, res.e2e
	if trace {
		defs, vals = perLayer, res.layer
	}
	rep := report{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]measured, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if (!ok && !trace) || math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s: no finite value (%v)", d.name, v)
		}
		rep.Metrics[d.name] = measured{Value: v, Unit: d.unit}
	}
	return rep, nil
}

// oneMain runs one workload here and prints its report as the last
// line of standard output.
func oneMain(cfg runConfig) error {
	// The repository root is where BENCHMARK.json is; the scratch and
	// trace directory is relative to it.
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	rep, err := toReport(res, cfg.trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// environment records what the numbers were measured on.
func environment() map[string]string {
	env := map[string]string{
		"nproc":          fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":     fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":             runtime.Version(),
		"network":        "loopback TCP, one process; no link",
		"wal_sync_every": fmt.Sprint(walSyncEvery),
		"snapshot_every": fmt.Sprint(snapshotEvery),
		"pull_every":     pullEvery.String(),
		"wire_clients":   fmt.Sprint(clients),
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(".", &st); err == nil {
		env["wal_filesystem_magic"] = fmt.Sprintf("%#x", st.Type)
	}
	return env
}

// allMain runs every workload untraced and traced, each in a child
// process so peak memory is the workload's own, and writes the set.
func allMain(seed int64, seconds float64, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Env: environment()}
	for _, name := range workloadNames {
		for i := 0; i < runs; i++ {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self,
					"--workload", name, "--seed", fmt.Sprint(seed+int64(i)),
					"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", name, trace, err)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					return fmt.Errorf("%s (trace %d): last line is not a report: %w", name, trace, err)
				}
				set.Runs = append(set.Runs, runRecord{Workload: name, Seed: seed + int64(i), Trace: trace, Report: rep})
			}
		}
	}
	printSet(&set)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(&set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// column gathers one metric's values over a workload's runs.
func (s *resultSet) column(workload string, trace int, metric string) (vals []float64, unit string) {
	for _, r := range s.Runs {
		if m, ok := r.Report.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			vals, unit = append(vals, m.Value), m.Unit
		}
	}
	return vals, unit
}

func spread(vals []float64) (med, lo, hi float64) {
	return median(vals), slices.Min(vals), slices.Max(vals)
}

// printSet prints every metric of every workload by name: median, and
// the range when there was more than one run.
func printSet(set *resultSet) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	for _, name := range workloadNames {
		fmt.Fprintf(tw, "\n%s\t\t\t\n", name)
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				vals, unit := set.column(name, trace, d.name)
				if len(vals) == 0 {
					continue
				}
				med, lo, hi := spread(vals)
				fmt.Fprintf(tw, "  %s\t%.6g %s\t[%.6g .. %.6g]\tn=%d\n", d.name, med, unit, lo, hi, len(vals))
			}
		}
		// Traced and untraced runs do the same passes; the gap between
		// their throughputs is what tracing cost, noise included.
		on, _ := set.column(name, 1, "trace.sessions_per_s")
		off, _ := set.column(name, 0, "sessions_per_s")
		if len(on) > 0 && len(off) > 0 {
			fmt.Fprintf(tw, "  traced/untraced sessions_per_s\t%.4f\t\t\n", median(on)/median(off))
		}
	}
}
