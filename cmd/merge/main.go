// Command merge runs the fault-tolerant distributed merge over a fleet
// of collector shards: it keeps one pull of each shard's
// partial-aggregate frames outstanding (the shard answers as soon as it
// has news), folds them into one global snapshot byte-identical to a
// single-node run over the same records, and serves the regular query
// API plus per-shard staleness through /v1/healthz (status
// "degraded:shard" while any shard is down; the merged snapshot keeps
// serving from healthy shards plus the down shard's last installed
// state).
//
// Usage:
//
//	merge -shards http://127.0.0.1:7101,http://127.0.0.1:7102 -addr 127.0.0.1:8080
//
// SIGINT/SIGTERM drains in-flight requests (bounded by -drain), stops
// the pullers, and verifies nothing leaked before exiting 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"
	"unicode"

	"honeyfarm/internal/daemon"
)

func main() {
	var cfg daemon.CoordinatorConfig
	drain := daemon.Flags(&cfg.Addr, &cfg.AddrFile, "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	shardsArg := flag.String("shards", "", "comma-separated shard base URLs (required)")
	flag.IntVar(&cfg.Pots, "pots", 221, "fleet-wide farm size; must match the shards'")
	flag.DurationVar(&cfg.PullEvery, "pull-every", 250*time.Millisecond, "idle heartbeat and retry spacing: the longest a pull waits at its shard for news, and the gap after one that failed or brought none")
	flag.IntVar(&cfg.FailAfter, "fail-after", 3, "consecutive pull failures before a shard is marked down")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 64, "bound on concurrently rendered responses")
	flag.Parse()

	cfg.Shards = strings.FieldsFunc(*shardsArg, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	if len(cfg.Shards) == 0 {
		fmt.Fprintln(os.Stderr, "usage: merge -shards url1,url2,... [-addr host:port]")
		os.Exit(2)
	}

	proc := daemon.Start("merge")
	n, err := daemon.OpenCoordinator(cfg)
	if err == nil {
		log.Printf("merge: listening on %s over %d shard(s)", n.Addr(), len(cfg.Shards))
		err = proc.Run(n, *drain)
	}
	if err != nil {
		log.Fatalf("merge: %v", err)
	}
	log.Printf("merge: drained cleanly at snapshot seq %d (ingested %d)", n.Coord.Snapshot().Seq, n.Coord.Seq())
}
