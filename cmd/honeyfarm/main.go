// Command honeyfarm generates a calibrated synthetic honeyfarm dataset —
// the substitute for the paper's proprietary 402M-session collection —
// and writes it as a record log, the format a collector's write-ahead
// log has, for later analysis with cmd/analyze. -format cowrie writes a
// Cowrie JSON event log instead.
//
// Usage:
//
//	honeyfarm [-sessions 400000] [-days 486] [-pots 221] [-seed 1] -out dataset
//	honeyfarm -scenario custom.json -out dataset
//	honeyfarm -format cowrie -out cowrie.json
//
// A scenario file (see internal/scenario) can override the category
// mix, protocol splits, spike schedule, and campaign generation. A key
// it leaves out (seed, total_sessions, days, pots) takes the flag's
// value, and its fault plan inherits the seed resolved so.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"

	"honeyfarm"
	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/scenario"
	"honeyfarm/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it generates the dataset args ask
// for, writes it to its -out (out for "-"), reports on errOut and
// returns the exit status.
func run(args []string, out, errOut io.Writer) int {
	flags := flag.NewFlagSet("honeyfarm", flag.ContinueOnError)
	flags.SetOutput(errOut)
	sessions := flags.Int("sessions", 400_000, "total sessions to generate (paper scale: 402,000,000)")
	days := flags.Int("days", 486, "observation period length in days")
	pots := flags.Int("pots", 221, "number of honeypots")
	seed := flags.Int64("seed", 1, "generation seed")
	scenarioPath := flags.String("scenario", "", "JSON scenario file overriding the paper's calibration")
	outPath := flags.String("out", "dataset", "output path: a new directory for wal, a file or '-' (stdout) for cowrie; written atomically")
	format := flags.String("format", "wal", "output format: wal (a record log, which analyze -in reads) or cowrie (cowrie.json events)")
	if flags.Parse(args) != nil {
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"sessions", *sessions}, {"days", *days}, {"pots", *pots}} {
		if f.v < 1 {
			fmt.Fprintf(errOut, "honeyfarm: -%s %d: want at least 1\n", f.name, f.v)
			return 2
		}
	}
	if *format != "wal" && *format != "cowrie" {
		fmt.Fprintf(errOut, "honeyfarm: unknown -format %q (wal or cowrie)\n", *format)
		return 2
	}
	if *outPath == "-" && *format != "cowrie" {
		fmt.Fprintln(errOut, "honeyfarm: -out - needs -format cowrie; a record log is a directory")
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(errOut, "honeyfarm: "+format+"\n", a...)
		return 1
	}
	if *format == "wal" {
		// SaveWAL refuses an existing target itself, and that check is
		// the atomic one; this one refuses it before generating.
		for _, p := range []string{*outPath, *outPath + ".tmp"} {
			if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
				if err == nil {
					err = fs.ErrExist
				}
				return fail("-out: %s: %v", p, err)
			}
		}
	}

	var d *honeyfarm.Dataset
	if *scenarioPath != "" {
		cfg, err := scenario.LoadFile(*scenarioPath, scenario.Scenario{Seed: *seed, TotalSessions: *sessions, Days: *days, Pots: *pots})
		if err != nil {
			return fail("scenario: %v", err)
		}
		cfg.Registry = geo.NewRegistry(geo.Config{Seed: cfg.Seed})
		res, err := workload.Generate(cfg)
		if err != nil {
			return fail("simulate: %v", err)
		}
		d = honeyfarm.NewDatasetFromResult(res, cfg.Registry, cfg.NumPots)
	} else {
		var err error
		d, err = honeyfarm.Simulate(honeyfarm.SimulateConfig{
			Seed:          *seed,
			TotalSessions: *sessions,
			Days:          *days,
			NumPots:       *pots,
		})
		if err != nil {
			return fail("simulate: %v", err)
		}
	}
	d.Summary(errOut)
	var err error
	switch {
	case *format == "wal":
		err = d.SaveWAL(*outPath)
	case *outPath == "-":
		err = d.ExportCowrie(out)
	default:
		err = atomicio.WriteFile(*outPath, d.ExportCowrie)
	}
	if err != nil {
		return fail("writing dataset: %v", err)
	}
	if *outPath == "-" {
		return 0
	}
	fmt.Fprintf(errOut, "wrote %d sessions to %s\n", d.Sessions(), *outPath)
	return 0
}
