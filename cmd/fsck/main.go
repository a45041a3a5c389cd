// Command fsck verifies — and optionally repairs — record logs: a
// collector's write-ahead log or a dataset cmd/honeyfarm wrote (see
// internal/wal). Every segment is scanned frame by frame, CRCs are
// validated, and per-segment frame/record/byte statistics are printed.
// Damage is reported as TORN (a partially written frame: what a crash
// leaves, and what Open itself truncates at the tail of the final
// segment) or CORRUPT (a frame whose checksum holds and whose contents
// do not decode: never a crash, and refused by Open wherever it sits);
// -repair truncates either away, after which the log opens cleanly
// again. A path that is not a directory is no log: it gets a one-line
// verdict and exit 2, like an unreadable one.
//
// With more than one path — the normal shape for a sharded farm, one
// WAL directory per collector — a per-path summary table follows the
// detailed reports, so an operator fsck-ing a whole fleet reads the
// verdict in one screen.
//
// Exit status is 0 when everything is healthy (or was repaired), 1 when
// damage remains, 2 on usage errors.
//
// Usage:
//
//	fsck [-repair] path...
//	fsck s0/wal s1/wal s2/wal
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/wal"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it checks every path in args, writes
// the reports to out and returns the exit status.
func run(args []string, out, errOut io.Writer) int {
	flags := flag.NewFlagSet("fsck", flag.ContinueOnError)
	flags.SetOutput(errOut)
	repair := flags.Bool("repair", false, "truncate damaged WAL segments to their intact prefix")
	if flags.Parse(args) != nil || flags.NArg() == 0 {
		fmt.Fprintln(errOut, "usage: fsck [-repair] path...")
		return 2
	}
	exit := 0
	results := make([]result, 0, flags.NArg())
	for _, path := range flags.Args() {
		info, err := os.Stat(path)
		if err == nil && !info.IsDir() {
			err = fmt.Errorf("%s: not a WAL directory", path)
		}
		if err != nil {
			fmt.Fprintf(errOut, "fsck: %v\n", err)
			results = append(results, result{path: path, status: "unreadable"})
			exit = 2
			continue
		}
		res := checkWAL(out, path, *repair)
		results = append(results, res)
		if !res.healthy && exit == 0 {
			exit = 1
		}
	}
	if len(results) > 1 {
		printSummary(out, results)
	}
	return exit
}

// result is one path's verdict, rendered into the fleet summary table.
type result struct {
	path    string
	records int
	healthy bool
	status  string // "ok", "repaired", "TORN", "unreadable", ...
}

// printSummary renders the per-path verdict table for multi-path runs
// (one WAL directory per shard is the expected fleet layout).
func printSummary(out io.Writer, results []result) {
	fmt.Fprintf(out, "\nsummary: %d path(s)\n", len(results))
	fmt.Fprintf(out, "  %-32s %-9s %s\n", "path", "records", "status")
	unhealthy := 0
	for _, r := range results {
		fmt.Fprintf(out, "  %-32s %-9d %s\n", r.path, r.records, r.status)
		if !r.healthy {
			unhealthy++
		}
	}
	if unhealthy > 0 {
		fmt.Fprintf(out, "  %d of %d unhealthy\n", unhealthy, len(results))
	}
}

// checkWAL scans one WAL directory and reports per-segment statistics.
// The result is healthy when the log is intact (possibly after repair).
func checkWAL(out io.Writer, dir string, repair bool) result {
	res := result{path: dir}
	rec, err := wal.Verify(dir, time.Time{})
	if err != nil {
		fmt.Fprintf(out, "%s: unreadable WAL: %v\n", dir, err)
		res.status = "unreadable"
		return res
	}
	printWAL(out, dir, rec)
	res.records = rec.Records()
	if len(rec.OrphanedTmp) > 0 && repair {
		swept, err := atomicio.SweepTmp(iofault.OS, dir)
		if err != nil {
			fmt.Fprintf(out, "%s: sweeping orphaned tmp files: %v\n", dir, err)
			res.status = "sweep failed"
			return res
		}
		fmt.Fprintf(out, "%s: swept %d orphaned tmp file(s)\n", dir, len(swept))
	}
	if rec.Healthy() {
		res.healthy = true
		res.status = "ok"
		return res
	}
	if !repair {
		fmt.Fprintf(out, "%s: %d damaged bytes (run with -repair to truncate)\n", dir, rec.TornBytes)
		res.status = damageState(rec.Segments, rec.TornBytes)
		return res
	}
	repaired, err := wal.Repair(dir, time.Time{})
	if err != nil {
		fmt.Fprintf(out, "%s: repair failed: %v\n", dir, err)
		res.status = "repair failed"
		return res
	}
	fmt.Fprintf(out, "%s: repaired; %d records survive\n", dir, repaired.Records())
	res.records = repaired.Records()
	res.healthy = repaired.Healthy()
	res.status = "repaired"
	if !res.healthy {
		res.status = "repair incomplete"
	}
	return res
}

// damageState names the damage in segs: CORRUPT if any of them stops at
// a frame whose checksum holds (wal.SegmentStat.Corrupt), TORN otherwise.
func damageState(segs []wal.SegmentStat, bytes int64) string {
	state := "TORN"
	for _, s := range segs {
		if s.Corrupt {
			state = "CORRUPT"
		}
	}
	return fmt.Sprintf("%s (%d bytes)", state, bytes)
}

// printWAL renders the per-segment frame/checksum statistics.
func printWAL(out io.Writer, dir string, rec *wal.Recovery) {
	fmt.Fprintf(out, "%s: %d segments, %d batches, %d records, epoch %s\n",
		dir, len(rec.Segments), len(rec.Batches), rec.Records(), rec.Epoch.Format("2006-01-02"))
	fmt.Fprintf(out, "  %-16s %-8s %-9s %-10s %-11s %s\n",
		"segment", "frames", "records", "bytes", "good_bytes", "state")
	for i, s := range rec.Segments {
		state := "ok"
		if s.Torn {
			state = damageState(rec.Segments[i:i+1], s.TornBytes)
		}
		fmt.Fprintf(out, "  %-16s %-8d %-9d %-10d %-11d %s\n",
			s.Name, s.Frames, s.Records, s.Bytes, s.GoodBytes, state)
	}
	// Outage gaps are not damage — they are the degraded writer's own
	// count-and-drop accounting — but an operator auditing a log needs
	// to see what a disk outage cost.
	for _, g := range rec.Gaps {
		fmt.Fprintf(out, "  gap: %s: %d batches, %d records dropped\n", g.Reason, g.Batches, g.Records)
	}
	// Orphaned tmp files are leftovers of a crash between an atomic
	// write's Close and Rename; Open sweeps them, -repair sweeps them
	// here, and they never count against health.
	for _, name := range rec.OrphanedTmp {
		fmt.Fprintf(out, "  orphaned tmp: %s\n", name)
	}
}
