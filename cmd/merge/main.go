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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"honeyfarm"
	"honeyfarm/internal/daemon"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
)

func main() {
	addr, addrFile, drain := daemon.Flags("127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	shardsArg := flag.String("shards", "", "comma-separated shard base URLs (required)")
	pots := flag.Int("pots", 221, "fleet-wide farm size; must match the shards'")
	pullEvery := flag.Duration("pull-every", 250*time.Millisecond, "idle heartbeat and retry spacing: the longest a pull waits at its shard for news, and the gap after one that failed or brought none")
	failAfter := flag.Int("fail-after", 3, "consecutive pull failures before a shard is marked down")
	maxInflight := flag.Int("max-inflight", 64, "bound on concurrently rendered responses")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*shardsArg, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "usage: merge -shards url1,url2,... [-addr host:port]")
		os.Exit(2)
	}

	proc := daemon.Start("merge")
	coord, err := shard.New(shard.Config{
		Shards:    urls,
		NumPots:   *pots,
		Countries: true,
		Epoch:     honeyfarm.DefaultEpoch,
		PullEvery: *pullEvery,
		FailAfter: *failAfter,
		Now:       time.Now,
	})
	if err != nil {
		log.Fatalf("merge: %v", err)
	}

	api := query.NewServer(query.ServerConfig{
		Source:      coord,
		Shards:      coord.ShardStatuses,
		MaxInflight: *maxInflight,
	})
	reg := shard.BuildMergeRegistry(coord, api, *pots, time.Now)
	l, err := daemon.Listen(*addr, *addrFile, daemon.Mux("merge", reg, api.Handler()))
	if err != nil {
		log.Fatalf("merge: %v", err)
	}
	log.Printf("merge: listening on %s over %d shard(s)", l.Addr(), len(urls))

	proc.Wait(l)
	err = l.Drain(*drain)
	coord.Stop()
	if err = errors.Join(err, proc.CheckLeaks()); err != nil {
		log.Fatalf("merge: %v", err)
	}
	log.Printf("merge: drained cleanly at snapshot seq %d (ingested %d)", coord.Snapshot().Seq, coord.Seq())
}
