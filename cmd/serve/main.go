// Command serve runs the live query API over a honeyfarm WAL: it tails
// the write-ahead log a collector (a cmd/shard node, say) is writing,
// folds every durable batch into the incremental aggregation engine, and
// serves epoch-sealed snapshots as JSON over HTTP.
//
// Endpoints: /v1/summary, /v1/pots, /v1/clients, /v1/countries,
// /v1/healthz. Data responses carry an ETag keyed on the snapshot
// sequence; If-None-Match revalidation returns 304.
//
// Usage:
//
//	shard -wal-dir s0/ &              # a shard writing its WAL
//	serve -wal-dir s0/ -addr 127.0.0.1:8080
//
// SIGINT/SIGTERM drains in-flight requests (bounded by -drain), stops
// the tailer, and verifies nothing leaked before exiting 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"honeyfarm/internal/daemon"
)

func main() {
	var cfg daemon.FollowerConfig
	drain := daemon.Flags(&cfg.Addr, &cfg.AddrFile, "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	flag.StringVar(&cfg.WALDir, "wal-dir", "", "WAL directory to tail (required)")
	flag.StringVar(&cfg.Epoch, "epoch", "", "store epoch as YYYY-MM-DD (default: the paper's 2021-12-01); must match the WAL's")
	flag.IntVar(&cfg.Pots, "pots", 221, "farm size: rows in the per-pot table")
	flag.Int64Var(&cfg.Seed, "seed", 1, "registry seed for country resolution; must match the generation seed")
	flag.IntVar(&cfg.SnapshotEvery, "snapshot-every", 5000, "auto-seal a snapshot every N ingested records (0: seal only per drain cycle)")
	flag.DurationVar(&cfg.Poll, "poll", 200*time.Millisecond, "tail poll interval once caught up")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 64, "bound on concurrently rendered responses")
	flag.BoolVar(&cfg.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the same listener")
	flag.Parse()

	if cfg.WALDir == "" {
		fmt.Fprintln(os.Stderr, "usage: serve -wal-dir <dir> [-addr host:port]")
		os.Exit(2)
	}

	proc := daemon.Start("serve")
	n, err := daemon.OpenFollower(cfg)
	if err == nil {
		log.Printf("serve: listening on %s, tailing %s", n.Addr(), cfg.WALDir)
		err = proc.Run(n, *drain)
	}
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	seq, off := n.Follower.Position()
	log.Printf("serve: drained cleanly at snapshot seq %d (wal %d+%d)", n.Engine.Snapshot().Seq, seq, off)
}
