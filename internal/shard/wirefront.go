package shard

// The wire-ingest front of a collector shard: real-TCP SSH/Telnet
// listeners for the shard's pot partition, ingesting through a
// query.Sink as the synthetic feeder does. This is what lets
// cmd/loadgen drive a live shard fleet over actual sockets — sessions
// arrive on the wire, the honeypot records them, and the sink appends
// every record durably before it folds it into the aggregates.
//
// One honeypot (and one SSH + one Telnet listener) is bound per owned
// pot. That is deliberate small-fleet topology: the load harness and
// the check.sh smoke gate run a handful of pots per shard; a
// production front would multiplex, but per-pot listeners keep the
// pot attribution exact with zero protocol additions.

import (
	"fmt"
	"net"
	"strings"
	"sync"

	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/metrics"
	"honeyfarm/internal/query"
	"honeyfarm/internal/wal"
)

// WireConfig parameterizes a WireFront.
type WireConfig struct {
	// Shards and Index select the pot partition (HoneypotID % Shards ==
	// Index) out of NumPots fleet-wide pots. Shards must be ≥ 1.
	Shards, Index, NumPots int
	// Host is the listen host (default "127.0.0.1"); every listener
	// binds port 0.
	Host string
	// Engine receives every accepted record. Required.
	Engine *query.Engine
	// WAL, when non-nil, is appended to before the engine ingests: a
	// record that cannot be persisted is counted as refused and never
	// reaches the aggregates.
	WAL *wal.Log
	// Fetch resolves attacker download URIs; nil blocks egress.
	Fetch func(uri string) ([]byte, error)
}

// WirePot is one bound pot of the front.
type WirePot struct {
	ID         int
	SSHAddr    string
	TelnetAddr string
}

// WireFront is a running wire-ingest front. Create with NewWireFront,
// stop with Close.
type WireFront struct {
	cfg  WireConfig
	sink *query.Sink // cfg.WAL then cfg.Engine
	pots []WirePot

	accepted metrics.Counter
	refused  metrics.Counter
	byPot    map[int]*metrics.Counter
	open     metrics.Gauge

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup // accept loops and session handlers
}

// NewWireFront binds the partition's listeners and starts accepting.
func NewWireFront(cfg WireConfig) (*WireFront, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("shard: WireConfig.Engine is required")
	}
	if cfg.Shards < 1 || cfg.Index < 0 || cfg.Index >= cfg.Shards {
		return nil, fmt.Errorf("shard: invalid wire partition %d/%d", cfg.Index, cfg.Shards)
	}
	if cfg.Host == "" {
		cfg.Host = "127.0.0.1"
	}
	w := &WireFront{
		cfg:   cfg,
		sink:  query.NewSink(cfg.WAL, cfg.Engine),
		byPot: make(map[int]*metrics.Counter),
		conns: make(map[net.Conn]struct{}),
	}
	for id := 0; id < cfg.NumPots; id++ {
		if id%cfg.Shards != cfg.Index {
			continue
		}
		pot, err := honeypot.New(honeypot.Config{
			ID:    id,
			Fetch: cfg.Fetch,
			Sink:  w.potSink(id),
		})
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("shard: wire pot %d: %w", id, err)
		}
		sshLn, err := w.listen()
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("shard: wire pot %d ssh: %w", id, err)
		}
		telnetLn, err := w.listen()
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("shard: wire pot %d telnet: %w", id, err)
		}
		w.byPot[id] = &metrics.Counter{}
		w.pots = append(w.pots, WirePot{
			ID:         id,
			SSHAddr:    sshLn.Addr().String(),
			TelnetAddr: telnetLn.Addr().String(),
		})
		w.serve(sshLn, pot.ServeSSH)
		w.serve(telnetLn, pot.ServeTelnet)
	}
	return w, nil
}

// listen binds one port-0 TCP listener and records it for Close.
func (w *WireFront) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", net.JoinHostPort(w.cfg.Host, "0"))
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.listeners = append(w.listeners, ln)
	w.mu.Unlock()
	return ln, nil
}

// serve runs one accept loop; each connection is tracked so Close can
// force-drain.
func (w *WireFront) serve(ln net.Listener, handle func(net.Conn)) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		//lint:ignore bounded-loop accept loop; exits when Close closes the listener
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			w.mu.Lock()
			if w.closed {
				w.mu.Unlock()
				c.Close()
				continue
			}
			w.conns[c] = struct{}{}
			w.mu.Unlock()
			w.open.Add(1)
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				handle(c)
				w.open.Add(-1)
				w.mu.Lock()
				delete(w.conns, c)
				w.mu.Unlock()
			}()
		}
	}()
}

// potSink returns pot id's record sink: each record is a batch of one
// through the front's Sink, counted as accepted or refused.
func (w *WireFront) potSink(id int) func(*honeypot.SessionRecord) {
	return func(rec *honeypot.SessionRecord) {
		if err := w.sink.Ingest([]*honeypot.SessionRecord{rec}); err != nil {
			w.refused.Inc()
			return
		}
		w.accepted.Inc()
		w.byPot[id].Inc()
	}
}

// Pots returns the bound pots in ID order.
func (w *WireFront) Pots() []WirePot { return append([]WirePot(nil), w.pots...) }

// Accepted returns the count of records persisted and ingested.
func (w *WireFront) Accepted() uint64 { return w.accepted.Value() }

// Refused returns the count of records dropped because the WAL
// refused the append (degraded writer).
func (w *WireFront) Refused() uint64 { return w.refused.Value() }

// OpenConns returns the live wire connection count.
func (w *WireFront) OpenConns() float64 { return w.open.Value() }

// WriteAddrFile atomically writes the pot address table — one
// "<pot> <ssh-addr> <telnet-addr>" line per owned pot — for
// cmd/loadgen's -targets flag.
func (w *WireFront) WriteAddrFile(path string) error {
	var b strings.Builder
	for _, p := range w.pots {
		fmt.Fprintf(&b, "%d %s %s\n", p.ID, p.SSHAddr, p.TelnetAddr)
	}
	return atomicio.WriteFileBytes(path, []byte(b.String()))
}

// RegisterWireMetrics exports the front's session accounting.
func RegisterWireMetrics(reg *metrics.Registry, w *WireFront) {
	reg.CounterFunc("honeyfarm_wire_sessions_accepted_total",
		"Wire sessions whose records were persisted and ingested.",
		nil, func() float64 { return float64(w.Accepted()) })
	reg.CounterFunc("honeyfarm_wire_sessions_refused_total",
		"Wire sessions dropped because the WAL refused the append.",
		nil, func() float64 { return float64(w.Refused()) })
	reg.GaugeFunc("honeyfarm_wire_open_conns",
		"Live wire connections.",
		nil, func() float64 { return w.OpenConns() })
	for _, p := range w.pots {
		ctr := w.byPot[p.ID]
		reg.CounterFunc("honeyfarm_wire_pot_sessions_total",
			"Wire sessions accepted per pot.",
			metrics.Labels{"pot": fmt.Sprint(p.ID)},
			func() float64 { return float64(ctr.Value()) })
	}
}

// Close stops the listeners, force-closes live connections, and waits
// for every accept loop and session handler to finish.
func (w *WireFront) Close() error {
	w.mu.Lock()
	w.closed = true
	lns := w.listeners
	w.listeners = nil
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	var firstErr error
	for _, ln := range lns {
		if err := ln.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, c := range conns {
		c.Close() // session handlers unblock and record the abort
	}
	w.wg.Wait()
	return firstErr
}
