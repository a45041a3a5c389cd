// Command serve runs the live query API over a honeyfarm WAL: it tails
// the write-ahead log a collector (or a checkpointed reproduce run) is
// writing, folds every durable batch into the incremental aggregation
// engine, and serves epoch-sealed snapshots as JSON over HTTP.
//
// Endpoints: /v1/summary, /v1/pots, /v1/clients, /v1/countries,
// /v1/availability, /v1/healthz. Data responses carry an ETag keyed on
// the snapshot sequence; If-None-Match revalidation returns 304.
//
// Usage:
//
//	reproduce -wal-dir ckpt/ &        # something writing a WAL
//	serve -wal-dir ckpt/ -addr 127.0.0.1:8080
//
// SIGINT/SIGTERM drains in-flight requests (bounded by -drain), stops
// the tailer, and verifies nothing leaked before exiting 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux; exposed only behind -pprof
	"os"
	"time"

	"honeyfarm"
	"honeyfarm/internal/daemon"
	"honeyfarm/internal/query"
)

func main() {
	addr, addrFile, drain := daemon.Flags("127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	walDir := flag.String("wal-dir", "", "WAL directory to tail (required)")
	epochArg := flag.String("epoch", "", "store epoch as YYYY-MM-DD (default: the paper's 2021-12-01); must match the WAL's")
	pots := flag.Int("pots", 221, "farm size: rows in the per-pot and availability tables")
	seed := flag.Int64("seed", 1, "registry seed for country resolution; must match the generation seed")
	snapshotEvery := flag.Int("snapshot-every", 5000, "auto-seal a snapshot every N ingested records (0: seal only per drain cycle)")
	poll := flag.Duration("poll", 200*time.Millisecond, "tail poll interval once caught up")
	maxInflight := flag.Int("max-inflight", 64, "bound on concurrently rendered responses")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the same listener")
	flag.Parse()

	if *walDir == "" {
		fmt.Fprintln(os.Stderr, "usage: serve -wal-dir <dir> [-addr host:port]")
		os.Exit(2)
	}
	epoch := honeyfarm.DefaultEpoch
	if *epochArg != "" {
		t, err := time.Parse("2006-01-02", *epochArg)
		if err != nil {
			log.Fatalf("serve: parsing -epoch: %v", err)
		}
		epoch = t
	}

	proc := daemon.Start("serve")
	engine := query.New(query.Config{
		Epoch:         epoch,
		NumPots:       *pots,
		Registry:      honeyfarm.NewRegistry(*seed),
		SnapshotEvery: *snapshotEvery,
	})
	follower, err := query.NewFollower(engine, *walDir, *poll)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	follower.Start()

	api := query.NewServer(query.ServerConfig{
		Source:      engine,
		Follower:    follower,
		MaxInflight: *maxInflight,
	})
	mux := daemon.Mux("serve", query.BuildServeRegistry(engine, follower, api, *pots), api.Handler())
	if *pprofFlag {
		// Beside the API, so a live process can be profiled without a
		// second listener. Off by default: the API is cacheable public
		// data, a heap profile is not.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
	}
	l, err := daemon.Listen(*addr, *addrFile, mux)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	log.Printf("serve: listening on %s, tailing %s", l.Addr(), *walDir)

	proc.Wait(l)
	err = l.Drain(*drain)
	if ferr := follower.Stop(); ferr != nil {
		err = errors.Join(err, fmt.Errorf("follower: %w", ferr))
	}
	if err = errors.Join(err, proc.CheckLeaks()); err != nil {
		log.Fatalf("serve: %v", err)
	}
	seq, off := follower.Position()
	log.Printf("serve: drained cleanly at snapshot seq %d (wal %d+%d)", engine.Snapshot().Seq, seq, off)
}
