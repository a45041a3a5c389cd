// Package daemon is the process lifecycle cmd/shard and cmd/merge
// share: Start, then OpenShard or OpenCoordinator, then Run, which
// waits for a signal, calls the node's one Close (its ordered stop) and
// CheckLeaks. Every step returns its error, so a failed drain still
// reaches the stop steps behind it.
package daemon

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
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"honeyfarm"
	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/metrics"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
	"honeyfarm/internal/wal"
)

// Flags declares the three flags every daemon has.
func Flags(addr, addrFile *string, addrDefault, addrUsage string) (drain *time.Duration) {
	flag.StringVar(addr, "addr", addrDefault, addrUsage)
	flag.StringVar(addrFile, "addr-file", "", "write the bound address to this file once listening (for scripts)")
	return flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
}

// Process is a daemon's signal channel and goroutine baseline.
type Process struct {
	name     string
	sigc     chan os.Signal
	baseline int
}

// Start registers SIGINT/SIGTERM and then takes the goroutine baseline,
// before main starts anything. In that order: os/signal starts a
// permanent goroutine on first Notify, which would read as a leak.
func Start(name string) *Process {
	p := &Process{name: name, sigc: make(chan os.Signal, 1)}
	signal.Notify(p.sigc, os.Interrupt, syscall.SIGTERM)
	p.baseline = runtime.NumGoroutine()
	return p
}

// Mux mounts reg at /metrics and root at /, after adding the binary's
// build info and three runtime gauges to reg.
func Mux(component string, reg *metrics.Registry, root http.Handler) *http.ServeMux {
	reg.GaugeFunc("honeyfarm_build_info", "Constant 1, labelled with the binary and the Go version that built it.",
		metrics.Labels{"component": component, "go_version": runtime.Version()}, func() float64 { return 1 })
	for _, m := range []struct{ name, help, src string }{
		{"honeyfarm_runtime_goroutines", "Live goroutines.", "/sched/goroutines:goroutines"},
		{"honeyfarm_runtime_heap_live_bytes", "Heap bytes the last GC cycle marked live.", "/gc/heap/live:bytes"},
		{"honeyfarm_runtime_gc_pause_cpu_seconds", "Cumulative CPU time the GC held the program paused (estimate).", "/cpu/classes/gc/pause:cpu-seconds"},
	} {
		reg.GaugeFunc(m.name, m.help, nil, func() float64 {
			s := []rtmetrics.Sample{{Name: m.src}}
			rtmetrics.Read(s)
			if s[0].Value.Kind() == rtmetrics.KindFloat64 {
				return s[0].Value.Float64()
			}
			return float64(s[0].Value.Uint64())
		})
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", root)
	return mux
}

// Node is an open daemon: the HTTP server on its bound address and
// what runs behind it. Each Open fills the fields of its kind and
// leaves the others nil.
type Node struct {
	Engine *query.Engine      // shard
	Front  *shard.WireFront   // shard under -wire
	Coord  *shard.Coordinator // merge
	ln     net.Listener
	srv    *http.Server
	done   chan struct{} // closed once Serve has returned err
	err    error
	close  func(context.Context) error // the kind's ordered stop
}

// listen binds addr, writes the bound address and a newline to addrFile
// when one is named, and serves h; n's close must be set. A node that
// cannot listen is closed before the error is returned.
func (n *Node) listen(addr, addrFile string, h http.Handler) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err == nil && addrFile != "" {
		// Atomically: scripts poll this file and must never read half an address.
		if err = atomicio.WriteFileBytes(addrFile, []byte(ln.Addr().String()+"\n")); err != nil {
			ln.Close()
			err = fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	if err != nil {
		return nil, errors.Join(err, n.Close(context.Background()))
	}
	// Shutdown leaves request contexts alone, and a request parked on its
	// context (a shard pull waiting for news) would hold the drain for as
	// long as it waits: the base context ends as the shutdown begins.
	ctx, wake := context.WithCancel(context.Background())
	n.ln, n.done = ln, make(chan struct{})
	n.srv = &http.Server{Handler: h, BaseContext: func(net.Listener) context.Context { return ctx }}
	n.srv.RegisterOnShutdown(wake)
	go func() { n.err = n.srv.Serve(ln); close(n.done) }()
	return n, nil
}

// Addr is the bound address.
func (n *Node) Addr() net.Addr { return n.ln.Addr() }

// Drain stops accepting and waits until ctx ends for in-flight
// requests; past that it force-closes them and reports the timeout, so
// that the caller's remaining stop steps still run.
func (n *Node) Drain(ctx context.Context) error {
	if n.srv == nil { // failed before it bound an address
		return nil
	}
	err := n.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(fmt.Errorf("drain: %w", err), n.srv.Close())
	}
	if <-n.done; !errors.Is(n.err, http.ErrServerClosed) {
		err = errors.Join(err, n.err)
	}
	return err
}

// Close is the node's ordered stop, its drain bounded by ctx. Every
// step runs even after one failed (a shard's last is the WAL's fsync).
func (n *Node) Close(ctx context.Context) error { return n.close(ctx) }

// Run blocks until SIGINT/SIGTERM or n's server fails, then closes n
// within drain (Close reports the failure) and checks for leaks.
func (p *Process) Run(n *Node, drain time.Duration) error {
	select {
	case <-n.done:
	case sig := <-p.sigc:
		log.Printf("%s: %v: draining...", p.name, sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return errors.Join(n.Close(ctx), p.CheckLeaks())
}

// CheckLeaks reports goroutines started since Start and still running.
// net/http's workers unwind after Shutdown returns, hence the settling.
func (p *Process) CheckLeaks() error {
	leaked := 0
	for i := 0; i < 200; i++ {
		if leaked = runtime.NumGoroutine() - p.baseline; leaked <= 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%d goroutines leaked after drain", leaked)
}

// ShardConfig is cmd/shard's flags, less those that generate its records.
type ShardConfig struct {
	Addr, AddrFile, WALDir, WireAddrFile      string
	Shards, Index, Pots, Batch, SnapshotEvery int
	Pace                                      time.Duration
	Wire                                      bool
}

// Check reports a shard's flags it cannot run with.
func (c ShardConfig) Check() error {
	if c.WALDir == "" || c.Shards < 1 || c.Index < 0 || c.Index >= c.Shards || c.Batch < 1 || c.Pots < 1 {
		return fmt.Errorf("want -wal-dir, 0 <= -index < -shards, -batch >= 1, -pots >= 1; have %q, %d, %d, %d, %d", c.WALDir, c.Index, c.Shards, c.Batch, c.Pots)
	}
	return nil
}

// foreign reports the first recovered record that is not the shard's: one
// of a pot another index owns or, fed from part, one that is not the
// record part holds at its offset.
func (c ShardConfig) foreign(part []*honeypot.SessionRecord, batches []wal.Batch) error {
	i := 0
	for _, b := range batches {
		for _, r := range b.Records {
			if r.HoneypotID%c.Shards != c.Index {
				return fmt.Errorf("WAL record %d is of pot %d, which shard %d of %d does not own; -shards/-index mismatch", i, r.HoneypotID, c.Index, c.Shards)
			}
			if !c.Wire && (i >= len(part) || part[i].ID != r.ID) {
				return fmt.Errorf("WAL record %d (session %d) is not the partition's, which has %d records; -shards/-index/-seed mismatch", i, r.ID, len(part))
			}
			i++
		}
	}
	return nil
}

// OpenShard replays the WAL into a fresh engine, starts the wire front
// (-wire) or feeds part, the partition's records, from the first one the
// WAL lacks, and serves the query and pull APIs. A WAL that holds a pot
// the shard does not own, or (fed from part) records that are not part's
// prefix, is another partition's: refused, and closed.
func OpenShard(cfg ShardConfig, part []*honeypot.SessionRecord, reg *honeyfarm.Registry) (*Node, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	wlog, recovery, err := wal.Open(cfg.WALDir, wal.Options{Epoch: honeyfarm.DefaultEpoch})
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: cfg.Pots, Registry: reg, SnapshotEvery: cfg.SnapshotEvery})
	for _, b := range recovery.Batches {
		eng.Ingest(b.Records)
	}
	n, recovered := &Node{Engine: eng}, recovery.Records()
	stopFeed, feeder := make(chan struct{}), new(sync.WaitGroup)
	n.close = func(ctx context.Context) error {
		close(stopFeed)
		feeder.Wait()
		var err error
		if n.Front != nil {
			err = n.Front.Close() // force-drains stragglers: the seal covers every session accepted
		}
		eng.Seal()
		return errors.Join(err, n.Drain(ctx), wlog.Close()) // in this order
	}
	if err := cfg.foreign(part, recovery.Batches); err != nil {
		return nil, errors.Join(err, n.Close(context.Background()))
	}
	eng.Seal()
	if cfg.Wire {
		n.Front, err = shard.NewWireFront(shard.WireConfig{Shards: cfg.Shards, Index: cfg.Index, NumPots: cfg.Pots, Engine: eng, WAL: wlog})
		if err == nil && cfg.WireAddrFile != "" {
			err = n.Front.WriteAddrFile(cfg.WireAddrFile)
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("wire front: %w", err), n.Close(context.Background()))
		}
		log.Printf("shard %d/%d: recovered %d, wire front up for %d pots", cfg.Index, cfg.Shards, recovered, len(n.Front.Pots()))
	} else {
		log.Printf("shard %d/%d: partition %d records, recovered %d, feeding %d", cfg.Index, cfg.Shards, len(part), recovered, len(part)-recovered)
		// A batch the sink refuses (a degraded WAL) is retried until the
		// writer heals: nothing is folded that a crash would lose.
		sink := query.NewSink(wlog, eng)
		feeder.Add(1)
		go func() {
			defer feeder.Done()
			for off := recovered; off < len(part); {
				select {
				case <-stopFeed:
					return
				case <-time.After(cfg.Pace):
				}
				end := min(off+cfg.Batch, len(part))
				if err := sink.Ingest(part[off:end]); err != nil {
					log.Printf("shard %d: wal append: %v (retrying)", cfg.Index, err)
					continue
				}
				off = end
			}
			eng.Seal()
			log.Printf("shard %d: feed complete at seq %d", cfg.Index, eng.Seq())
		}()
	}
	api := query.NewServer(query.ServerConfig{Source: eng, WALHealth: wlog.Health})
	mux := Mux("shard", shard.BuildCollectorRegistry(eng, wlog.Health, n.Front, api, cfg.Pots), api.Handler())
	mux.Handle("/shard/", shard.NewHandler(eng))
	return n.listen(cfg.Addr, cfg.AddrFile, mux)
}

// CoordinatorConfig is cmd/merge's flags.
type CoordinatorConfig struct {
	Addr, AddrFile               string
	Shards                       []string // base URLs
	Pots, FailAfter, MaxInflight int
	PullEvery                    time.Duration
}

// OpenCoordinator starts pulling every shard and serves the query API
// over the merged snapshot.
func OpenCoordinator(cfg CoordinatorConfig) (*Node, error) {
	c, err := shard.New(shard.Config{Shards: cfg.Shards, NumPots: cfg.Pots, Countries: true, Epoch: honeyfarm.DefaultEpoch, PullEvery: cfg.PullEvery, FailAfter: cfg.FailAfter, Now: time.Now})
	if err != nil {
		return nil, err
	}
	api := query.NewServer(query.ServerConfig{Source: c, Shards: c.ShardStatuses, MaxInflight: cfg.MaxInflight})
	n := &Node{Coord: c}
	n.close = func(ctx context.Context) error { defer c.Stop(); return n.Drain(ctx) }
	return n.listen(cfg.Addr, cfg.AddrFile, Mux("merge", shard.BuildMergeRegistry(c, api, cfg.Pots), api.Handler()))
}
