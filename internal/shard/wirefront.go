package shard

// The wire-ingest front of a collector shard: real-TCP SSH/Telnet
// listeners for the shard's pot partition, served by one
// honeypot.Server and ingesting through a query.Sink as the synthetic
// feeder does. This is what lets cmd/loadgen drive a live shard fleet
// over actual sockets — sessions arrive on the wire, the honeypot
// records them, and the sink appends every record durably before it
// folds it into the aggregates. The front keeps only the partition, the
// sink and its counters; accepting, tracking and draining connections
// are the server's.
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
	// Engine receives every accepted record. Required.
	Engine *query.Engine
	// WAL, when non-nil, is appended to before the engine ingests: a
	// record that cannot be persisted is counted as refused and never
	// reaches the aggregates.
	WAL *wal.Log
}

// WirePot is one bound pot of the front.
type WirePot struct {
	ID         int
	SSHAddr    string
	TelnetAddr string
}

// WireFront is a running wire-ingest front. Create with NewWireFront,
// stop with Close. Every listener binds 127.0.0.1 on port 0.
type WireFront struct {
	sink *query.Sink // cfg.WAL then cfg.Engine
	pots []WirePot
	srv  honeypot.Server

	accepted metrics.Counter
	refused  metrics.Counter
	// byPot counts each pot's accepted records at its ID. It is sized
	// before the first pot serves, so record never sees it grow.
	byPot []metrics.Counter
}

// NewWireFront binds the partition's listeners and starts accepting.
func NewWireFront(cfg WireConfig) (*WireFront, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("shard: WireConfig.Engine is required")
	}
	if cfg.Shards < 1 || cfg.Index < 0 || cfg.Index >= cfg.Shards {
		return nil, fmt.Errorf("shard: invalid wire partition %d/%d", cfg.Index, cfg.Shards)
	}
	w := &WireFront{
		sink:  query.NewSink(cfg.WAL, cfg.Engine),
		byPot: make([]metrics.Counter, max(cfg.NumPots, 0)),
	}
	for id := cfg.Index; id < cfg.NumPots; id += cfg.Shards {
		// No Fetch: wire pots block egress, recording each URI.
		pot, err := honeypot.New(honeypot.Config{ID: id, Sink: w.record})
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("shard: wire pot %d: %w", id, err)
		}
		sshLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("shard: wire pot %d ssh: %w", id, err)
		}
		w.srv.Serve(sshLn, pot.ServeSSH)
		telnetLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("shard: wire pot %d telnet: %w", id, err)
		}
		w.srv.Serve(telnetLn, pot.ServeTelnet)
		w.pots = append(w.pots, WirePot{
			ID:         id,
			SSHAddr:    sshLn.Addr().String(),
			TelnetAddr: telnetLn.Addr().String(),
		})
	}
	return w, nil
}

// record is every pot's record sink: each record is a batch of one
// through the front's Sink, counted as accepted or refused.
func (w *WireFront) record(rec *honeypot.SessionRecord) {
	if err := w.sink.Ingest([]*honeypot.SessionRecord{rec}); err != nil {
		w.refused.Inc()
		return
	}
	w.accepted.Inc()
	w.byPot[rec.HoneypotID].Inc()
}

// Pots returns the bound pots in ID order.
func (w *WireFront) Pots() []WirePot { return append([]WirePot(nil), w.pots...) }

// Accepted returns the count of records persisted and ingested.
func (w *WireFront) Accepted() uint64 { return w.accepted.Value() }

// Refused returns the count of records dropped because the WAL
// refused the append (degraded writer).
func (w *WireFront) Refused() uint64 { return w.refused.Value() }

// OpenConns returns the live wire connection count.
func (w *WireFront) OpenConns() float64 { return float64(w.srv.Open()) }

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
		ctr := &w.byPot[p.ID]
		reg.CounterFunc("honeyfarm_wire_pot_sessions_total",
			"Wire sessions accepted per pot.",
			metrics.Labels{"pot": fmt.Sprint(p.ID)},
			func() float64 { return float64(ctr.Value()) })
	}
}

// Close stops the listeners, force-closes live connections, and waits
// for every accept loop and session handler to finish: the handlers of
// cut sessions record the abort before it returns.
func (w *WireFront) Close() error { return w.srv.Close() }
