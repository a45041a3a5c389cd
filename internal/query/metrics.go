package query

// The /metrics side of the serving layer: registration helpers that
// export an engine/follower/server triple into a metrics.Registry.
// Each helper is separately callable because the three node shapes
// mount different subsets — cmd/serve has a follower, cmd/shard has
// the WAL writer in-process, cmd/merge has neither — while the metric
// names stay identical across the fleet. All values are read through
// funcs at scrape time, so registration costs nothing on the ingest or
// serve hot paths.

import (
	"strconv"

	"honeyfarm/internal/metrics"
	"honeyfarm/internal/wal"
)

// RegisterSourceMetrics exports the snapshot-source rows every node
// shares: ingested sequence, published snapshot sequence/days, seal
// lag, and the per-pot session gauges (one child per pot, read from
// the published snapshot at scrape time).
func RegisterSourceMetrics(reg *metrics.Registry, src Source, numPots int) {
	reg.CounterFunc("honeyfarm_ingested_records_total",
		"Records folded into the aggregation engine (the engine sequence).",
		nil, func() float64 { return float64(src.Seq()) })
	reg.GaugeFunc("honeyfarm_snapshot_seq",
		"Sequence of the published (sealed) snapshot.",
		nil, func() float64 { return float64(src.Snapshot().Seq) })
	reg.GaugeFunc("honeyfarm_snapshot_days",
		"Day buckets covered by the published snapshot.",
		nil, func() float64 { return float64(src.Snapshot().Days) })
	reg.GaugeFunc("honeyfarm_seal_lag_records",
		"Records ingested but not yet sealed into the published snapshot.",
		nil, func() float64 { return float64(src.Seq() - src.Snapshot().Seq) })
	for i := 0; i < numPots; i++ {
		pot := i
		reg.GaugeFunc("honeyfarm_pot_sessions",
			"Sessions attributed to the pot in the published snapshot.",
			metrics.Labels{"pot": strconv.Itoa(pot)}, func() float64 {
				snap := src.Snapshot()
				if pot >= len(snap.Pots) {
					return 0
				}
				return float64(snap.Pots[pot].Sessions)
			})
	}
}

// RegisterEngineMetrics exports the engine-only rows — the seal
// counter, the rows held and the rows the next delta pull ships — call
// alongside RegisterSourceMetrics when the source is a local Engine.
func RegisterEngineMetrics(reg *metrics.Registry, eng *Engine) {
	reg.CounterFunc("honeyfarm_snapshot_seals_total",
		"Snapshots sealed over the engine lifetime.",
		nil, func() float64 { return float64(eng.Seals()) })
	reg.GaugeFunc("honeyfarm_engine_state_entries",
		"Client and hash table rows held as of the published snapshot.",
		nil, func() float64 {
			snap := eng.Snapshot()
			return float64(snap.ClientCount + snap.HashCount)
		})
	reg.GaugeFunc("honeyfarm_engine_pending_entries",
		"Client and hash entries folded since the last pull's cut (0 while no puller is tracked).",
		nil, func() float64 { return float64(eng.PendingEntries()) })
}

// RegisterFollowerMetrics exports the WAL tail position and gap losses
// of a follower-fed node (cmd/serve).
func RegisterFollowerMetrics(reg *metrics.Registry, f *Follower) {
	reg.GaugeFunc("honeyfarm_wal_segment",
		"WAL segment the follower tail has reached.",
		nil, func() float64 { seg, _ := f.Position(); return float64(seg) })
	reg.GaugeFunc("honeyfarm_wal_offset_bytes",
		"Byte offset of the follower tail within its segment.",
		nil, func() float64 { _, off := f.Position(); return float64(off) })
	reg.CounterFunc("honeyfarm_wal_gap_records_total",
		"Records lost to degraded-writer outages, from the gap frames the tail crossed.",
		nil, func() float64 {
			n := 0
			for _, g := range f.WALGaps() {
				n += g.Records
			}
			return float64(n)
		})
	reg.GaugeFunc("honeyfarm_follower_degraded",
		"1 once the follower hit a terminal tail error, else 0.",
		nil, func() float64 {
			if f.Err() != nil {
				return 1
			}
			return 0
		})
}

// RegisterWALHealthMetrics exports the in-process WAL writer's
// append/fsync/drop accounting (cmd/shard, or any node owning the
// writer).
func RegisterWALHealthMetrics(reg *metrics.Registry, health func() wal.Health) {
	reg.CounterFunc("honeyfarm_wal_append_batches_total",
		"Batch frames appended to the WAL.",
		nil, func() float64 { return float64(health().Appends) })
	reg.CounterFunc("honeyfarm_wal_append_records_total",
		"Records appended to the WAL.",
		nil, func() float64 { return float64(health().AppendedRecords) })
	reg.CounterFunc("honeyfarm_wal_fsyncs_total",
		"Successful segment fsyncs (group commits, explicit Syncs, seals).",
		nil, func() float64 { return float64(health().Fsyncs) })
	reg.CounterFunc("honeyfarm_wal_sync_coalesced_total",
		"Sync requests absorbed by one already queued behind the in-flight fsync.",
		nil, func() float64 { return float64(health().CoalescedSyncs) })
	reg.GaugeFunc("honeyfarm_wal_unsynced_records",
		"Records appended to the WAL that no finished fsync covers yet.",
		nil, func() float64 { return float64(health().UnsyncedRecords) })
	reg.CounterFunc("honeyfarm_wal_dropped_batches_total",
		"Batches refused while the writer was degraded.",
		nil, func() float64 { return float64(health().DroppedBatches) })
	reg.CounterFunc("honeyfarm_wal_dropped_records_total",
		"Records refused while the writer was degraded.",
		nil, func() float64 { return float64(health().DroppedRecords) })
	reg.CounterFunc("honeyfarm_wal_outages_total",
		"Entries into WAL degraded mode.",
		nil, func() float64 { return float64(health().Outages) })
	reg.CounterFunc("honeyfarm_wal_recoveries_total",
		"Successful recovery probes out of WAL degraded mode.",
		nil, func() float64 { return float64(health().Recoveries) })
	reg.GaugeFunc("honeyfarm_wal_degraded",
		"1 while the WAL writer is refusing appends, else 0.",
		nil, func() float64 {
			if health().Degraded {
				return 1
			}
			return 0
		})
}

// RegisterServeMetrics exports the HTTP serving layer's cache and
// load-shedding counters.
func RegisterServeMetrics(reg *metrics.Registry, s *Server) {
	reg.CounterFunc("honeyfarm_serve_cache_hits_total",
		"Responses served from the per-snapshot render cache.",
		nil, func() float64 { return float64(s.Metrics().CacheHits) })
	reg.CounterFunc("honeyfarm_serve_renders_total",
		"Response bodies rendered (cache misses).",
		nil, func() float64 { return float64(s.Metrics().Renders) })
	reg.CounterFunc("honeyfarm_serve_coalesced_total",
		"Requests that waited on another request's in-flight render.",
		nil, func() float64 { return float64(s.Metrics().Coalesced) })
	reg.CounterFunc("honeyfarm_serve_not_modified_total",
		"ETag revalidations answered 304.",
		nil, func() float64 { return float64(s.Metrics().NotModified) })
	reg.CounterFunc("honeyfarm_serve_rejected_total",
		"Requests shed with 503 by the bounded in-flight semaphore.",
		nil, func() float64 { return float64(s.Metrics().Rejected) })
}

// BuildServeRegistry assembles the full cmd/serve metric set: source +
// engine + serve rows, plus the follower rows when f is non-nil. This
// is exactly what cmd/serve mounts at /metrics, so the golden test
// over it pins the binary's exposition.
func BuildServeRegistry(eng *Engine, f *Follower, srv *Server, numPots int) *metrics.Registry {
	reg := metrics.NewRegistry()
	RegisterSourceMetrics(reg, eng, numPots)
	RegisterEngineMetrics(reg, eng)
	if f != nil {
		RegisterFollowerMetrics(reg, f)
	}
	RegisterServeMetrics(reg, srv)
	return reg
}
