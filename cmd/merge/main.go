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
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"honeyfarm"
	"honeyfarm/internal/analysis"
	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/malware"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	shardsArg := flag.String("shards", "", "comma-separated shard base URLs (required)")
	pots := flag.Int("pots", 221, "fleet-wide farm size; must match the shards'")
	pullEvery := flag.Duration("pull-every", 250*time.Millisecond, "idle heartbeat and retry spacing: the longest a pull waits at its shard for news, and the gap after one that failed or brought none")
	failAfter := flag.Int("fail-after", 3, "consecutive pull failures before a shard is marked down")
	maxInflight := flag.Int("max-inflight", 64, "bound on concurrently rendered responses")
	clientRows := flag.Int("client-rows", 100, "maximum rows served by /v1/clients")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
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

	// Register the signal handler before taking the goroutine baseline:
	// os/signal starts a permanent runtime goroutine on first Notify,
	// which would otherwise read as a leak.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	baseline := runtime.NumGoroutine()

	coord, err := shard.New(shard.Config{
		Shards:    urls,
		NumPots:   *pots,
		Countries: true,
		Epoch:     honeyfarm.DefaultEpoch,
		Tagger:    analysis.Tagger(malware.NewTagger(nil)),
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
		ClientRows:  *clientRows,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("merge: listen: %v", err)
	}
	if *addrFile != "" {
		// Written atomically: the merge smoke test polls this file and
		// must never read a half-written address.
		if err := atomicio.WriteFileBytes(*addrFile, []byte(ln.Addr().String()+"\n")); err != nil {
			log.Fatalf("merge: writing -addr-file: %v", err)
		}
	}
	log.Printf("merge: listening on %s over %d shard(s)", ln.Addr(), len(urls))

	mux := http.NewServeMux()
	mux.Handle("/metrics", shard.BuildMergeRegistry(coord, api, *pots, time.Now).Handler())
	mux.Handle("/", api.Handler())
	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("merge: %v", err)
	case sig := <-sigc:
		log.Printf("merge: %v: draining...", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("merge: drain: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("merge: %v", err)
	}
	coord.Stop()

	// Leak check: every goroutine we started must be gone before exit.
	leaked := 0
	for i := 0; i < 200; i++ {
		leaked = runtime.NumGoroutine() - baseline
		if leaked <= 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaked > 0 {
		log.Fatalf("merge: %d goroutines leaked after drain", leaked)
	}
	log.Printf("merge: drained cleanly at snapshot seq %d (ingested %d)", coord.Snapshot().Seq, coord.Seq())
}
