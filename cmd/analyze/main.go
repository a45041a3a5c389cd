// Command analyze runs the full measurement pipeline over a stored
// dataset and prints every table and figure of the paper's evaluation.
//
// Usage:
//
//	analyze [-in dataset] [-seed 1] [-pots 221] [-stride 30] [-tables table1,figure15]
//	analyze -in s0/ -pots 6
//	analyze -cowrie -in cowrie.json
//
// -in names a record log: a dataset cmd/honeyfarm wrote, or a
// collector's write-ahead log such as a shard -wire node's -wal-dir. It
// is read only, and refused with a pointer to fsck -repair where the
// collector itself would refuse to open it.
// The seed must match the one the dataset was generated with so the
// rebuilt geography registry agrees with the recorded client IPs.
// -tables restricts output to the named report sections (and skips the
// reduces the selection does not need); each selected block is
// byte-identical to its block in the full report. -pots must cover
// every pot the dataset holds: a record of a pot at or past it is
// refused, naming the pot, rather than left out of the per-pot tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"honeyfarm"
)

// parseTables splits and validates a -tables argument against the
// report's section names; empty selects everything.
func parseTables(arg string) ([]string, error) {
	if arg == "" {
		return nil, nil
	}
	valid := map[string]bool{}
	for _, name := range honeyfarm.ReportTables() {
		valid[name] = true
	}
	var tables []string
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !valid[name] {
			return nil, fmt.Errorf("unknown table %q (valid: %s)", name, strings.Join(honeyfarm.ReportTables(), ", "))
		}
		tables = append(tables, name)
	}
	return tables, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it prints the report args ask for
// on out, reports errors on errOut and returns the exit status.
func run(args []string, out, errOut io.Writer) int {
	flags := flag.NewFlagSet("analyze", flag.ContinueOnError)
	flags.SetOutput(errOut)
	in := flags.String("in", "dataset", "input dataset: a record log (WAL) directory")
	cowrie := flags.Bool("cowrie", false, "input is a Cowrie JSON event log file instead of a record log")
	seed := flags.Int64("seed", 1, "registry seed used at generation time")
	pots := flags.Int("pots", 221, "number of honeypots in the dataset; a record of a pot at or past it is refused")
	stride := flags.Int("stride", 30, "time-series row stride in days")
	tablesArg := flags.String("tables", "", "comma-separated report sections to render (default: all)")
	if flags.Parse(args) != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(errOut, "analyze: "+format+"\n", a...)
		return 2
	}
	if *pots < 1 {
		return usage("-pots %d: want at least 1", *pots)
	}
	if *stride < 1 {
		return usage("-stride %d: want at least 1", *stride)
	}
	tables, err := parseTables(*tablesArg)
	if err != nil {
		return usage("-tables: %v", err)
	}

	reg := honeyfarm.NewRegistry(*seed)
	var d *honeyfarm.Dataset
	if *cowrie {
		f, ferr := os.Open(*in)
		if ferr != nil {
			fmt.Fprintf(errOut, "analyze: opening log: %v\n", ferr)
			return 1
		}
		defer f.Close()
		d, err = honeyfarm.LoadCowrie(f, reg, *pots, *seed)
	} else {
		d, err = honeyfarm.LoadDatasetFile(*in, reg, *pots, *seed)
	}
	if err == nil {
		err = checkPots(d.Store.Records(), *pots)
	}
	if err != nil {
		fmt.Fprintf(errOut, "analyze: loading dataset: %v\n", err)
		return 1
	}
	d.WriteReport(out, honeyfarm.ReportOptions{SeriesStride: *stride, Tables: tables})
	return 0
}

// checkPots refuses a record of a pot outside 0..pots-1. The per-pot
// tables have one row for each pot below -pots, so such a record would
// count in the farm's totals and be left out of every per-pot table
// without a word.
func checkPots(recs []*honeyfarm.SessionRecord, pots int) error {
	for _, r := range recs {
		if r.HoneypotID < 0 || r.HoneypotID >= pots {
			return fmt.Errorf("record %d is of pot %d; -pots %d covers pots 0 to %d", r.ID, r.HoneypotID, pots, pots-1)
		}
	}
	return nil
}
