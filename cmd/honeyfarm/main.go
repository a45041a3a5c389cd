// Command honeyfarm generates a calibrated synthetic honeyfarm dataset —
// the substitute for the paper's proprietary 402M-session collection —
// and writes it as JSONL for later analysis with cmd/analyze.
//
// Usage:
//
//	honeyfarm [-sessions 400000] [-days 486] [-pots 221] [-seed 1] -out dataset.jsonl
//	honeyfarm -scenario custom.json -out dataset.jsonl
//
// A scenario file (see internal/scenario) can override the category
// mix, protocol splits, spike schedule, and campaign generation.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"honeyfarm"
	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/scenario"
	"honeyfarm/internal/workload"
)

func main() {
	sessions := flag.Int("sessions", 400_000, "total sessions to generate (paper scale: 402,000,000)")
	days := flag.Int("days", 486, "observation period length in days")
	pots := flag.Int("pots", 221, "number of honeypots")
	seed := flag.Int64("seed", 1, "generation seed")
	scenarioPath := flag.String("scenario", "", "JSON scenario file overriding the paper's calibration")
	out := flag.String("out", "dataset.jsonl", "output path ('-' for stdout; files are written atomically)")
	format := flag.String("format", "jsonl", "output format: jsonl (this repo) or cowrie (cowrie.json events)")
	flag.Parse()

	var d *honeyfarm.Dataset
	if *scenarioPath != "" {
		cfg, err := scenario.LoadFile(*scenarioPath)
		if err != nil {
			log.Fatalf("scenario: %v", err)
		}
		if cfg.Seed == 0 {
			cfg.Seed = *seed
		}
		cfg.Registry = geo.NewRegistry(geo.Config{Seed: cfg.Seed})
		res, err := workload.Generate(cfg)
		if err != nil {
			log.Fatalf("simulate: %v", err)
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
			log.Fatalf("simulate: %v", err)
		}
	}
	d.Summary(os.Stderr)
	save := d.Save
	if *format == "cowrie" {
		save = d.ExportCowrie
	} else if *format != "jsonl" {
		log.Fatalf("unknown format %q", *format)
	}
	if *out == "-" {
		if err := save(os.Stdout); err != nil {
			log.Fatalf("writing dataset: %v", err)
		}
		return
	}
	if err := atomicio.WriteFile(*out, func(w io.Writer) error { return save(w) }); err != nil {
		log.Fatalf("writing dataset: %v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d sessions to %s\n", d.Sessions(), *out)
}
