// Command shard runs one collector shard of a multi-node honeyfarm: it
// owns the partition of pots with HoneypotID % shards == index,
// persists that partition's session records through its own write-ahead
// log, folds them into the incremental aggregation engine, and serves
// both the regular query API and the coordinator-facing pull API
// (/shard/v1/partials) on one listener.
//
// Restart is resumption: the WAL is recovered on startup, recovered
// batches replay into the engine, and feeding continues from the first
// unpersisted record — so a SIGKILLed shard comes back at a lower (then
// catching-up) sequence and the merge coordinator's monotonic install
// rule rides it out.
//
// Usage:
//
//	shard -wal-dir s0/ -shards 3 -index 0 -addr 127.0.0.1:0
//
// SIGINT/SIGTERM drains in-flight requests (bounded by -drain), stops
// the feeder, closes the WAL, and verifies nothing leaked before
// exiting 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"honeyfarm"
	"honeyfarm/internal/daemon"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
	"honeyfarm/internal/wal"
)

func main() {
	addr, addrFile, drain := daemon.Flags("127.0.0.1:0", "listen address")
	walDir := flag.String("wal-dir", "", "this shard's WAL directory (required)")
	shards := flag.Int("shards", 1, "fleet size: number of collector shards")
	index := flag.Int("index", 0, "this shard's id in [0, shards)")
	sessions := flag.Int("sessions", 50_000, "total sessions in the fleet-wide dataset")
	seed := flag.Int64("seed", 1, "generation seed; must match across the fleet")
	pots := flag.Int("pots", 221, "fleet-wide farm size (every shard sizes its tables for the full farm)")
	workers := flag.Int("workers", 0, "generation workers (0 = GOMAXPROCS); dataset is identical for any value")
	batch := flag.Int("batch", 500, "records per feed batch (appended durably, then ingested)")
	pace := flag.Duration("pace", 20*time.Millisecond, "delay between feed batches (simulated collection rate)")
	snapshotEvery := flag.Int("snapshot-every", 2000, "auto-seal a snapshot every N ingested records")
	wire := flag.Bool("wire", false, "serve real SSH/Telnet listeners for the owned pots instead of feeding the synthetic dataset")
	wireAddrFile := flag.String("wire-addr-file", "", "with -wire: write the pot address table here (lines: <pot> <ssh-addr> <telnet-addr>)")
	flag.Parse()

	if *walDir == "" || *shards < 1 || *index < 0 || *index >= *shards {
		fmt.Fprintln(os.Stderr, "usage: shard -wal-dir <dir> -shards N -index i [-addr host:port]")
		os.Exit(2)
	}

	proc := daemon.Start(fmt.Sprintf("shard %d", *index))

	// The whole fleet generates the same dataset from the same seed;
	// each shard keeps only its partition, so the union over the fleet
	// is exactly the single-node record set. A -wire shard skips the
	// synthetic dataset entirely: its records arrive over real sockets.
	var part []*honeypot.SessionRecord
	registry := honeyfarm.NewRegistry(*seed)
	if !*wire {
		d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
			Seed: *seed, TotalSessions: *sessions, NumPots: *pots, Workers: *workers,
		})
		if err != nil {
			log.Fatalf("shard: simulate: %v", err)
		}
		registry = d.Registry
		for _, r := range d.Store.Records() {
			if r.HoneypotID%*shards == *index {
				part = append(part, r)
			}
		}
	}

	wlog, recovery, err := wal.Open(*walDir, wal.Options{Epoch: honeyfarm.DefaultEpoch})
	if err != nil {
		log.Fatalf("shard: wal: %v", err)
	}
	engine := query.New(query.Config{
		Epoch:         honeyfarm.DefaultEpoch,
		NumPots:       *pots,
		Registry:      registry,
		SnapshotEvery: *snapshotEvery,
	})
	for _, b := range recovery.Batches {
		engine.Ingest(b.Records)
	}
	recovered := recovery.Records()
	if !*wire && recovered > len(part) {
		log.Fatalf("shard: WAL holds %d records but partition has %d; -shards/-index/-seed mismatch", recovered, len(part))
	}
	engine.Seal()
	log.Printf("shard %d/%d: partition %d records, recovered %d, feeding %d",
		*index, *shards, len(part), recovered, len(part)-recovered)

	var front *shard.WireFront
	if *wire {
		front, err = shard.NewWireFront(shard.WireConfig{
			Shards: *shards, Index: *index, NumPots: *pots,
			Engine: engine, WAL: wlog,
		})
		if err != nil {
			log.Fatalf("shard: wire front: %v", err)
		}
		if *wireAddrFile != "" {
			if err := front.WriteAddrFile(*wireAddrFile); err != nil {
				log.Fatalf("shard: writing -wire-addr-file: %v", err)
			}
		}
		log.Printf("shard %d: wire front up for %d pots", *index, len(front.Pots()))
	}

	api := query.NewServer(query.ServerConfig{Source: engine, WALHealth: wlog.Health})
	reg := shard.BuildCollectorRegistry(engine, wlog.Health, front, api, *pots)
	mux := daemon.Mux("shard", reg, api.Handler())
	mux.Handle("/shard/", shard.NewHandler(engine))
	l, err := daemon.Listen(*addr, *addrFile, mux)
	if err != nil {
		log.Fatalf("shard: %v", err)
	}
	log.Printf("shard %d: listening on %s, wal %s", *index, l.Addr(), *walDir)

	// The feeder: each batch goes through the sink, appended durably
	// and then folded. A degraded WAL (disk full) retries the same
	// batch until the writer heals rather than ingesting records a
	// crash would lose. A -wire shard has no feeder: its wire front
	// ingests each accepted session through a sink of its own.
	stopFeed := make(chan struct{})
	feedDone := make(chan struct{})
	if *wire {
		close(feedDone)
	} else {
		sink := query.NewSink(wlog, engine)
		go func() {
			defer close(feedDone)
			for off := recovered; off < len(part); {
				select {
				case <-stopFeed:
					return
				case <-time.After(*pace):
				}
				end := off + *batch
				if end > len(part) {
					end = len(part)
				}
				if err := sink.Ingest(part[off:end]); err != nil {
					log.Printf("shard %d: wal append: %v (retrying)", *index, err)
					continue
				}
				off = end
			}
			engine.Seal()
			log.Printf("shard %d: feed complete at seq %d", *index, engine.Seq())
		}()
	}

	proc.Wait(l)
	close(stopFeed)
	<-feedDone
	if front != nil {
		// Stop accepting wire sessions (force-draining stragglers), then
		// seal so the final snapshot covers everything accepted.
		if err := front.Close(); err != nil {
			log.Printf("shard %d: wire front close: %v", *index, err)
		}
		engine.Seal()
	}
	err = l.Drain(*drain)
	// Even after a failed drain: Close is the final fsync of appends
	// already acknowledged.
	if cerr := wlog.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("wal close: %w", cerr))
	}
	if err = errors.Join(err, proc.CheckLeaks()); err != nil {
		log.Fatalf("shard: %v", err)
	}
	log.Printf("shard %d: drained cleanly at seq %d", *index, engine.Seq())
}
