// Command reproduce runs the end-to-end reproduction: it generates the
// calibrated 15-month dataset, runs every analysis, and writes the full
// table/figure report plus a paper-vs-measured comparison of the
// headline findings (the data behind EXPERIMENTS.md).
//
// Usage:
//
//	reproduce [-sessions 400000] [-seed 1] [-out report.txt] [-faults plan.json]
//
// The report is a pure function of the flags, and -out is written
// atomically, so a killed run is simply rerun with the same flags.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"honeyfarm"
	"honeyfarm/internal/analysis"
	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it writes the report args ask for
// to its -out (out when there is none), reports on errOut and returns
// the exit status.
func run(args []string, out, errOut io.Writer) int {
	flags := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	flags.SetOutput(errOut)
	sessions := flags.Int("sessions", 400_000, "sessions to generate")
	seed := flags.Int64("seed", 1, "generation seed")
	outPath := flags.String("out", "", "report path (default stdout; written atomically)")
	workers := flags.Int("workers", 0, "generation workers (0 = GOMAXPROCS); output is identical for any value")
	faultsArg := flags.String("faults", "", "fault plan: path to a JSON file, or inline JSON starting with '{' (deterministic per seed)")
	if flags.Parse(args) != nil {
		return 2
	}
	if *sessions < 1 {
		fmt.Fprintf(errOut, "reproduce: -sessions %d: want at least 1\n", *sessions)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(errOut, "reproduce: -workers %d: want 0 (GOMAXPROCS) or more\n", *workers)
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(errOut, "reproduce: "+format+"\n", a...)
		return 1
	}

	plan, err := loadFaultPlan(*faultsArg, *seed)
	if err != nil {
		return fail("fault plan: %v", err)
	}

	fmt.Fprintf(errOut, "generating %d sessions (scale 1/%d of the paper)...\n",
		*sessions, 402_000_000 / *sessions)
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: *seed, TotalSessions: *sessions, Workers: *workers, Faults: plan,
	})
	if err != nil {
		return fail("simulate: %v", err)
	}

	render := func(w io.Writer) error {
		if d.Faults != nil {
			WriteAvailability(w, d)
		}
		WriteComparison(w, d)
		fmt.Fprintf(w, "\n\n======== FULL ARTIFACT REPORT ========\n")
		d.WriteReport(w, honeyfarm.ReportOptions{})
		return nil
	}
	if *outPath == "" {
		err = render(out)
	} else {
		err = atomicio.WriteFile(*outPath, render)
	}
	if err != nil {
		return fail("writing report: %v", err)
	}
	return 0
}

// loadFaultPlan parses the -faults argument: empty means no plan, a
// leading '{' means inline JSON, anything else is a file path. A plan
// with no seed of its own inherits the run seed, keeping one -seed flag
// in charge of the whole reproduction. An unknown key is refused by
// name, as it is in a scenario file's "faults" block, rather than
// ignored.
func loadFaultPlan(arg string, seed int64) (*honeyfarm.FaultPlan, error) {
	if arg == "" {
		return nil, nil
	}
	raw := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		raw = b
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var plan honeyfarm.FaultPlan
	if err := dec.Decode(&plan); err != nil {
		return nil, err
	}
	if plan.Seed == 0 {
		plan.Seed = seed
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &plan, nil
}

// WriteAvailability prints the per-honeypot availability table of a
// faulted run: the pots that lost time or sessions, plus farm totals.
func WriteAvailability(w io.Writer, d *honeyfarm.Dataset) {
	rows := d.Availability()
	fmt.Fprintln(w, "======== PER-HONEYPOT AVAILABILITY (faulted run) ========")
	fmt.Fprintf(w, "%-6s %-10s %-10s %-14s %-10s %s\n",
		"pot", "sessions", "down_days", "availability", "down_drops", "conn_drops")
	downPots, totalDown, totalConn := 0, 0, 0
	for _, r := range rows {
		totalDown += r.DowntimeDrops
		totalConn += r.ConnDrops
		if r.DownDays == 0 && r.DowntimeDrops == 0 && r.ConnDrops == 0 {
			continue
		}
		if r.DownDays > 0 {
			downPots++
		}
		fmt.Fprintf(w, "%-6d %-10d %-10d %-14.3f %-10d %d\n",
			r.Pot, r.Sessions, r.DownDays, r.Availability, r.DowntimeDrops, r.ConnDrops)
	}
	fmt.Fprintf(w, "totals: %d pots with outage windows, %d sessions lost to downtime, %d to connection faults\n\n",
		downPots, totalDown, totalConn)
}

// WriteComparison prints paper-reported values next to the measured
// reproduction for every checkable headline number.
func WriteComparison(w io.Writer, d *honeyfarm.Dataset) {
	fmt.Fprintln(w, "======== PAPER vs MEASURED (headline findings) ========")
	row := func(artifact, metric, paper string, measured any) {
		fmt.Fprintf(w, "%-10s %-52s paper=%-12s measured=%v\n", artifact, metric, paper, measured)
	}
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

	cs := d.CategoryShares()
	row("Table 1", "NO_CRED share", "27.7%", pct(cs.Overall[honeyfarm.NoCred]))
	row("Table 1", "FAIL_LOG share", "42%", pct(cs.Overall[honeyfarm.FailLog]))
	row("Table 1", "NO_CMD share", "11.6%", pct(cs.Overall[honeyfarm.NoCmd]))
	row("Table 1", "CMD share", "18%", pct(cs.Overall[honeyfarm.Cmd]))
	row("Table 1", "CMD+URI share", "0.7%", pct(cs.Overall[honeyfarm.CmdURI]))
	row("Table 1", "SSH share of all sessions", "75.84%", pct(cs.SSHTotal))
	row("Table 1", "SSH share of FAIL_LOG", "99.24%", pct(cs.SSHShareOfCategory[honeyfarm.FailLog]))
	row("Table 1", "Telnet share of NO_CRED", "78.18%", pct(1-cs.SSHShareOfCategory[honeyfarm.NoCred]))

	top := d.TopPasswords(10)
	row("Table 2", "most used successful password", "admin", top[0].Value)

	per := d.PerHoneypot()
	rank := analysis.SessionRank(per)
	row("Fig 2", "most/least targeted session ratio", ">30x",
		fmt.Sprintf("%.1fx", rank[0]/rank[len(rank)-1]))
	row("Fig 2", "top-10 honeypot session share", "14%", pct(stats.TopShare(rank, 10)))
	row("Fig 2", "knee rank", "~11", stats.Knee(rank))

	clients := d.ClientStats(-1)
	row("Sec 7", "unique client IPs (scaled)", "2.1M full-scale", len(clients))
	row("Sec 7", "multi-category client share", ">40%", pct(analysis.MultiCategoryShare(clients)))
	e12 := analysis.HoneypotsPerClientECDF(clients)
	row("Fig 12", "clients contacting one honeypot", ">40%", pct(e12.P(1)))
	row("Fig 12", "clients contacting >10 honeypots", "18%", pct(1-e12.P(10)))
	row("Fig 12", "clients contacting >half the farm", "2%", pct(1-e12.P(float64(d.NumPots)/2)))
	e13 := analysis.ActiveDaysECDF(clients)
	row("Fig 13", "clients active a single day", ">50%", pct(e13.P(1)))

	cc := d.ClientCountries(nil)
	total := 0
	for _, c := range cc {
		total += c.Clients
	}
	if len(cc) > 0 && total > 0 {
		row("Fig 10", "top client country", "CN (31%)",
			fmt.Sprintf("%s (%s)", cc[0].Country, pct(float64(cc[0].Clients)/float64(total))))
	}

	hs := d.HashStats()
	row("Sec 8", "unique file hashes (scaled)", "64,004 full-scale", len(hs))
	bySess := d.HashTable(analysis.BySessions, 20)
	row("Table 4", "top hash tag / honeypots", "trojan / 221",
		fmt.Sprintf("%s / %d", bySess[0].Tag, bySess[0].Honeypots))
	row("Table 4", "top hash dominance over #2", ">20x",
		fmt.Sprintf("%.1fx", float64(bySess[0].Sessions)/float64(max(1, bySess[1].Sessions))))
	fewIP := 0
	for _, h := range bySess {
		if h.ClientIPs < 5 {
			fewIP++
		}
	}
	row("Table 4", "top-20 hashes with <5 client IPs", "8 of 20", fewIP)
	byDays := d.HashTable(analysis.ByDays, 20)
	row("Table 6", "longest campaign active days", "484", byDays[0].Days)
	miraiCluster := 0
	for _, h := range hs {
		if h.Tag == "mirai" && h.Honeypots >= 70 && h.Honeypots <= 80 {
			miraiCluster++
		}
	}
	row("Table 5/6", "mirai hashes pinned to 75-77 honeypots", "~7", miraiCluster)

	vis := d.HashVisibility()
	row("Sec 8.4", "hashes seen at a single honeypot", ">60%", pct(vis.Single))
	row("Sec 8.4", "hashes seen at >10 honeypots", "6.8%", pct(vis.MoreThan10))
	row("Sec 8.4", "hashes seen at >half the farm", ">200 (of 64k)", vis.MoreThanHalf)

	hashRank := make([]float64, len(per))
	for i, p := range per {
		hashRank[i] = float64(p.Hashes)
	}
	e := stats.NewECDF(hashRank)
	topHash := e.Quantile(1)
	row("Fig 18", "top honeypot's share of all hashes", "<5%",
		pct(topHash/float64(max(1, len(hs)))))

	hf := d.HashFreshness()
	lo, hi := 1.0, 0.0
	for day := 30; day < len(hf.FreshAll); day++ {
		if hf.UniqueHashes[day] == 0 {
			continue
		}
		if hf.FreshAll[day] < lo {
			lo = hf.FreshAll[day]
		}
		if hf.FreshAll[day] > hi {
			hi = hf.FreshAll[day]
		}
	}
	row("Fig 17", "daily fresh-hash fraction range", "2%-60%",
		fmt.Sprintf("%s-%s", pct(lo), pct(hi)))

	rd := d.RegionalDiversity(nil).MeanFractions()
	row("Fig 16", "clients only out-of-continent", ">50%", pct(rd[analysis.OutOnly]))
	rdURI := d.RegionalDiversity(map[honeyfarm.Category]bool{honeyfarm.CmdURI: true}).MeanFractions()
	row("Fig 16b", "CMD+URI out-of-continent (lower = closer)", "smaller than overall", pct(rdURI[analysis.OutOnly]))

	// Section 8.4 / Conclusion: hash-rich honeypots see hashes first.
	fl := d.FirstSeenLeaders(10)
	row("Sec 8.4", "top-10-by-hashes ∩ top-10-by-first-sighting", "high overlap", pct(fl.TopOverlap))

	// Discussion extensions made measurable.
	fg := d.FederationGain(4)
	row("Disc.", "lone quarter-farm hash coverage vs federation", "federation wins",
		fmt.Sprintf("%s (lag %.0f days)", pct(fg.MeanPartShare), fg.MeanEarliestLagDays))
	bi := d.BlockingImpact(140, 20, 14)
	row("Disc.", "sessions preventable by blocking small campaigns", "months of activity",
		fmt.Sprintf("%s of %d sessions (%d campaigns)", pct(bi.PreventableShare), bi.TotalSessions, bi.Campaigns))
}
