// Command fsck verifies — and optionally repairs — the crash-safety
// artifacts a honeyfarm run leaves behind:
//
//   - a directory argument is checked as a write-ahead log (see
//     internal/wal): every segment is scanned frame by frame, CRCs are
//     validated, and per-segment frame/record/byte statistics are
//     printed. A torn tail (a partially written final frame) is
//     reported; -repair truncates it away, after which the log opens
//     cleanly again.
//   - a file argument is checked as a JSONL dataset: records are parsed
//     strictly, and a torn trailing line (SIGKILL mid-save without
//     atomic write) is reported. -repair rewrites the recovered prefix.
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
	"os"
	"time"

	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/store"
	"honeyfarm/internal/wal"
)

func main() {
	repair := flag.Bool("repair", false, "truncate torn WAL segments / rewrite recoverable JSONL prefixes")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: fsck [-repair] path...")
		os.Exit(2)
	}
	exit := 0
	results := make([]result, 0, flag.NArg())
	for _, path := range flag.Args() {
		info, err := os.Stat(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
			results = append(results, result{path: path, kind: "?", status: "unreadable"})
			exit = 2
			continue
		}
		var res result
		if info.IsDir() {
			res = checkWAL(path, *repair)
		} else {
			res = checkJSONL(path, *repair)
		}
		results = append(results, res)
		if !res.healthy && exit == 0 {
			exit = 1
		}
	}
	if len(results) > 1 {
		printSummary(results)
	}
	os.Exit(exit)
}

// result is one path's verdict, rendered into the fleet summary table.
type result struct {
	path    string
	kind    string // "wal" or "jsonl"
	records int
	healthy bool
	status  string // "ok", "repaired", "TORN", "unreadable", ...
}

// printSummary renders the per-path verdict table for multi-path runs
// (one WAL directory per shard is the expected fleet layout).
func printSummary(results []result) {
	fmt.Printf("\nsummary: %d path(s)\n", len(results))
	fmt.Printf("  %-32s %-6s %-9s %s\n", "path", "kind", "records", "status")
	unhealthy := 0
	for _, r := range results {
		fmt.Printf("  %-32s %-6s %-9d %s\n", r.path, r.kind, r.records, r.status)
		if !r.healthy {
			unhealthy++
		}
	}
	if unhealthy > 0 {
		fmt.Printf("  %d of %d unhealthy\n", unhealthy, len(results))
	}
}

// checkWAL scans one WAL directory and reports per-segment statistics.
// The result is healthy when the log is intact (possibly after repair).
func checkWAL(dir string, repair bool) result {
	res := result{path: dir, kind: "wal"}
	rec, err := wal.Verify(dir, time.Time{})
	if err != nil {
		fmt.Printf("%s: unreadable WAL: %v\n", dir, err)
		res.status = "unreadable"
		return res
	}
	printWAL(dir, rec)
	res.records = rec.Records()
	if len(rec.OrphanedTmp) > 0 && repair {
		swept, err := atomicio.SweepTmp(iofault.OS, dir)
		if err != nil {
			fmt.Printf("%s: sweeping orphaned tmp files: %v\n", dir, err)
			res.status = "sweep failed"
			return res
		}
		fmt.Printf("%s: swept %d orphaned tmp file(s)\n", dir, len(swept))
	}
	if rec.Healthy() {
		res.healthy = crossCheckWAL(dir, rec.Records())
		res.status = "ok"
		if !res.healthy {
			res.status = "read-path drift"
		}
		return res
	}
	if !repair {
		fmt.Printf("%s: %d torn bytes (run with -repair to truncate)\n", dir, rec.TornBytes)
		res.status = fmt.Sprintf("TORN (%d bytes)", rec.TornBytes)
		return res
	}
	repaired, err := wal.Repair(dir, time.Time{})
	if err != nil {
		fmt.Printf("%s: repair failed: %v\n", dir, err)
		res.status = "repair failed"
		return res
	}
	fmt.Printf("%s: repaired; %d records survive\n", dir, repaired.Records())
	res.records = repaired.Records()
	res.healthy = repaired.Healthy() && crossCheckWAL(dir, repaired.Records())
	res.status = "repaired"
	if !res.healthy {
		res.status = "repair incomplete"
	}
	return res
}

// crossCheckWAL re-reads the log through wal.Iterator — the query
// tailer's read path — and confirms it yields the record count the
// recovery scan found, so the two read paths cannot drift silently.
func crossCheckWAL(dir string, want int) bool {
	it, err := wal.NewIterator(dir)
	if err != nil {
		fmt.Printf("%s: iterator: %v\n", dir, err)
		return false
	}
	defer it.Close()
	got := 0
	for ok := true; ok; {
		var b wal.Batch
		b, ok, err = it.Next()
		if err != nil {
			fmt.Printf("%s: iterator read failed: %v\n", dir, err)
			return false
		}
		got += len(b.Records)
	}
	if got != want {
		fmt.Printf("%s: iterator read %d records, recovery scan found %d\n", dir, got, want)
		return false
	}
	return true
}

// printWAL renders the per-segment frame/checksum statistics.
func printWAL(dir string, rec *wal.Recovery) {
	fmt.Printf("%s: %d segments, %d batches, %d records, epoch %s\n",
		dir, len(rec.Segments), len(rec.Batches), rec.Records(), rec.Epoch.Format("2006-01-02"))
	fmt.Printf("  %-16s %-8s %-9s %-10s %-11s %s\n",
		"segment", "frames", "records", "bytes", "good_bytes", "state")
	for _, s := range rec.Segments {
		state := "ok"
		if s.Torn {
			state = fmt.Sprintf("TORN (%d bytes)", s.TornBytes)
		}
		fmt.Printf("  %-16s %-8d %-9d %-10d %-11d %s\n",
			s.Name, s.Frames, s.Records, s.Bytes, s.GoodBytes, state)
	}
	// Outage gaps are not damage — they are the degraded writer's own
	// count-and-drop accounting — but an operator auditing a log needs
	// to see what a disk outage cost.
	for _, g := range rec.Gaps {
		fmt.Printf("  gap: %s: %d batches, %d records dropped\n", g.Reason, g.Batches, g.Records)
	}
	// Orphaned tmp files are leftovers of a crash between an atomic
	// write's Close and Rename; Open sweeps them, -repair sweeps them
	// here, and they never count against health.
	for _, name := range rec.OrphanedTmp {
		fmt.Printf("  orphaned tmp: %s\n", name)
	}
}

// checkJSONL validates one JSONL dataset file, tolerating (and
// reporting) a torn trailing line. The result is healthy when the file
// is intact (possibly after repair).
func checkJSONL(path string, repair bool) result {
	res := result{path: path, kind: "jsonl"}
	f, err := os.Open(path)
	if err != nil {
		fmt.Printf("%s: %v\n", path, err)
		res.status = "unreadable"
		return res
	}
	st, rep, err := store.ReadJSONLWith(f, store.ReadJSONLOptions{AllowTornTail: true})
	f.Close()
	if err != nil {
		fmt.Printf("%s: unrecoverable: %v\n", path, err)
		res.status = "unrecoverable"
		return res
	}
	res.records = rep.Records
	if !rep.Truncated {
		fmt.Printf("%s: ok, %d records\n", path, rep.Records)
		res.healthy = true
		res.status = "ok"
		return res
	}
	fmt.Printf("%s: torn tail (%d trailing bytes); %d of %d records recoverable\n",
		path, rep.TornBytes, rep.Records, rep.HeaderCount)
	if !repair {
		fmt.Printf("%s: run with -repair to rewrite the recovered prefix\n", path)
		res.status = fmt.Sprintf("TORN (%d bytes)", rep.TornBytes)
		return res
	}
	if err := atomicio.WriteFile(path, st.WriteJSONL); err != nil {
		fmt.Printf("%s: repair failed: %v\n", path, err)
		res.status = "repair failed"
		return res
	}
	fmt.Printf("%s: repaired; %d records survive\n", path, st.Len())
	res.records = st.Len()
	res.healthy = true
	res.status = "repaired"
	return res
}
