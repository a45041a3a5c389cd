// Command shard runs one collector shard of a multi-node honeyfarm: it
// owns the partition of pots with HoneypotID % shards == index,
// persists that partition's session records through its own write-ahead
// log, folds them into the incremental aggregation engine, and serves
// both the regular query API and the coordinator-facing pull API
// (/shard/v1/partials) on one listener.
//
// Restart is resumption (daemon.OpenShard): a SIGKILLed shard comes
// back at a lower, then catching-up, sequence, which the merge
// coordinator's monotonic install rule rides out.
//
// Usage:
//
//	shard -wal-dir s0/ -shards 3 -index 0 -addr 127.0.0.1:0
//
// SIGINT/SIGTERM stops the feeder (or the wire front), drains in-flight
// requests (bounded by -drain), closes the WAL, and verifies nothing
// leaked before exiting 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"honeyfarm"
	"honeyfarm/internal/daemon"
	"honeyfarm/internal/honeypot"
)

func main() {
	var cfg daemon.ShardConfig
	drain := daemon.Flags(&cfg.Addr, &cfg.AddrFile, "127.0.0.1:0", "listen address")
	flag.StringVar(&cfg.WALDir, "wal-dir", "", "this shard's WAL directory (required)")
	flag.IntVar(&cfg.Shards, "shards", 1, "fleet size: number of collector shards")
	flag.IntVar(&cfg.Index, "index", 0, "this shard's id in [0, shards)")
	sessions := flag.Int("sessions", 50_000, "total sessions in the fleet-wide dataset")
	seed := flag.Int64("seed", 1, "generation seed; must match across the fleet")
	flag.IntVar(&cfg.Pots, "pots", 221, "fleet-wide farm size (every shard sizes its tables for the full farm)")
	workers := flag.Int("workers", 0, "generation workers (0 = GOMAXPROCS); dataset is identical for any value")
	flag.IntVar(&cfg.Batch, "batch", 500, "records per feed batch (appended durably, then ingested)")
	flag.DurationVar(&cfg.Pace, "pace", 20*time.Millisecond, "delay between feed batches (simulated collection rate)")
	flag.IntVar(&cfg.SnapshotEvery, "snapshot-every", 2000, "auto-seal a snapshot every N ingested records")
	flag.BoolVar(&cfg.Wire, "wire", false, "serve real SSH/Telnet listeners for the owned pots instead of feeding the synthetic dataset")
	flag.StringVar(&cfg.WireAddrFile, "wire-addr-file", "", "with -wire: write the pot address table here (lines: <pot> <ssh-addr> <telnet-addr>)")
	flag.Parse()

	if err := cfg.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "shard: %v\nusage: shard -wal-dir <dir> -shards N -index i [-addr host:port]\n", err)
		os.Exit(2)
	}

	proc := daemon.Start(fmt.Sprintf("shard %d", cfg.Index))

	// The whole fleet generates the same dataset from the same seed;
	// each shard keeps only its partition, so the union over the fleet
	// is exactly the single-node record set. A -wire shard skips the
	// synthetic dataset entirely: its records arrive over real sockets.
	var part []*honeypot.SessionRecord
	if !cfg.Wire {
		d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{Seed: *seed, TotalSessions: *sessions, NumPots: cfg.Pots, Workers: *workers})
		if err != nil {
			log.Fatalf("shard: simulate: %v", err)
		}
		for _, r := range d.Store.Records() {
			if r.HoneypotID%cfg.Shards == cfg.Index {
				part = append(part, r)
			}
		}
	}

	n, err := daemon.OpenShard(cfg, part, honeyfarm.NewRegistry(*seed))
	if err == nil {
		log.Printf("shard %d: listening on %s, wal %s", cfg.Index, n.Addr(), cfg.WALDir)
		err = proc.Run(n, *drain)
	}
	if err != nil {
		log.Fatalf("shard: %v", err)
	}
	log.Printf("shard %d: drained cleanly at seq %d", cfg.Index, n.Engine.Seq())
}
