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
// byte-identical to its block in the full report.
package main

import (
	"flag"
	"fmt"
	"log"
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

func main() {
	in := flag.String("in", "dataset", "input dataset: a record log (WAL) directory")
	cowrie := flag.Bool("cowrie", false, "input is a Cowrie JSON event log file instead of a record log")
	seed := flag.Int64("seed", 1, "registry seed used at generation time")
	pots := flag.Int("pots", 221, "number of honeypots in the dataset")
	stride := flag.Int("stride", 30, "time-series row stride in days")
	tablesArg := flag.String("tables", "", "comma-separated report sections to render (default: all)")
	flag.Parse()

	tables, err := parseTables(*tablesArg)
	if err != nil {
		log.Fatalf("-tables: %v", err)
	}

	reg := honeyfarm.NewRegistry(*seed)
	var d *honeyfarm.Dataset
	if *cowrie {
		f, ferr := os.Open(*in)
		if ferr != nil {
			log.Fatalf("opening log: %v", ferr)
		}
		defer f.Close()
		d, err = honeyfarm.LoadCowrie(f, reg, *pots, *seed)
	} else {
		d, err = honeyfarm.LoadDatasetFile(*in, reg, *pots, *seed)
	}
	if err != nil {
		log.Fatalf("loading dataset: %v", err)
	}
	d.WriteReport(os.Stdout, honeyfarm.ReportOptions{SeriesStride: *stride, Tables: tables})
}
