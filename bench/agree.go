package main

// -agree: compare two result sets, metric by metric and workload by
// workload, against the regression bounds BENCHMARK.json fixes.

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worseBy is the share of a's median by which b's is worse; negative
// when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agreeMain prints both sides of every end-to-end metric on every
// workload and fails when side b is worse than side a by more than
// the metric's bound. To ask whether two sets of the same commit
// agree, run it both ways round.
func agreeMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-agree takes two result sets, got %d argument(s)", len(args))
	}
	var (
		bf   benchmarkFile
		a, b resultSet
	)
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		return err
	}
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [min .. max]\tb median [min .. max]\tb worse by\tbound\t")
	disagree := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			av, _ := a.column(w.Name, 0, m.Name)
			bv, unit := b.column(w.Name, 0, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\tmissing (%d and %d runs)\t\t\t\tDISAGREE\n", w.Name, m.Name, len(av), len(bv))
				disagree++
				continue
			}
			am, alo, ahi := spread(av)
			bm, blo, bhi := spread(bv)
			worse := worseBy(am, bm, m.Better)
			verdict := ""
			if worse > m.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.5g [%.5g .. %.5g]\t%.5g [%.5g .. %.5g]\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, unit, am, alo, ahi, bm, blo, bhi, worse*100, m.Bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric(s) outside their bounds", disagree)
	}
	return nil
}
