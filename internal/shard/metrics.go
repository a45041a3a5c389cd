package shard

// /metrics registration for the two shard-fleet node shapes: the merge
// coordinator (per-shard pull health) and the collector shard (engine +
// WAL writer + optional wire front). Values are read through funcs at
// scrape time; nothing here touches the pull or ingest hot paths.

import (
	"strconv"
	"time"

	"honeyfarm/internal/metrics"
	"honeyfarm/internal/query"
	"honeyfarm/internal/stats"
	"honeyfarm/internal/wal"
)

// RegisterCoordinatorMetrics exports the merge coordinator's per-shard
// pull health: up/seq/staleness gauges, cumulative pull counters (how
// many pulls were full frames and the bytes they all carried say which
// path ran, pulls less idle pulls how often there was news), the
// merged-bundle rebuild counter, and the pull-latency histogram. now
// supplies the wall clock for the staleness gauges; nil renders them 0
// (deterministic tests).
func RegisterCoordinatorMetrics(reg *metrics.Registry, c *Coordinator, now func() time.Time) {
	n := len(c.cfg.Shards)
	for i := 0; i < n; i++ {
		shard := i
		labels := metrics.Labels{"shard": strconv.Itoa(shard)}
		reg.GaugeFunc("honeyfarm_shard_up",
			"1 while the shard answers pulls, else 0.",
			labels, func() float64 {
				if c.ShardStatuses()[shard].Up {
					return 1
				}
				return 0
			})
		reg.GaugeFunc("honeyfarm_shard_last_seq",
			"Installed (merged) sequence of the shard.",
			labels, func() float64 { return float64(c.ShardStatuses()[shard].LastSeq) })
		reg.GaugeFunc("honeyfarm_shard_consecutive_failures",
			"Consecutive failed pulls since the shard last answered.",
			labels, func() float64 { return float64(c.ShardStatuses()[shard].Failures) })
		reg.GaugeFunc("honeyfarm_shard_staleness_seconds",
			"Seconds since the shard last answered a pull (0 without a clock or before first contact).",
			labels, func() float64 {
				last := c.ShardStatuses()[shard].LastOKUnix
				if now == nil || last == 0 {
					return 0
				}
				d := now().Unix() - last
				if d < 0 {
					return 0
				}
				return float64(d)
			})
		reg.CounterFunc("honeyfarm_shard_pulls_total",
			"Pull attempts against the shard.",
			labels, func() float64 { return float64(c.PullStatsAll()[shard].Pulls) })
		reg.CounterFunc("honeyfarm_shard_pull_failures_total",
			"Failed pull attempts against the shard.",
			labels, func() float64 { return float64(c.PullStatsAll()[shard].Failures) })
		reg.CounterFunc("honeyfarm_shard_full_pulls_total",
			"Pulls the shard answered with its full bundle instead of a delta.",
			labels, func() float64 { return float64(c.PullStatsAll()[shard].Full) })
		reg.CounterFunc("honeyfarm_shard_idle_pulls_total",
			"Answered pulls that brought nothing new: the shard waited its time out, or answered at once with no records past the installed sequence.",
			labels, func() float64 { return float64(c.PullStatsAll()[shard].Idle) })
		reg.CounterFunc("honeyfarm_shard_pull_bytes_total",
			"Frame bytes received from the shard.",
			labels, func() float64 { return float64(c.PullStatsAll()[shard].Bytes) })
	}
	reg.CounterFunc("honeyfarm_merge_rebuilds_total",
		"Times the merged bundle was rebuilt because a full frame replaced a shard's installed state.",
		nil, func() float64 { return float64(c.MergeRebuilds()) })
	reg.HistogramFunc("honeyfarm_shard_pull_latency_seconds",
		"Response headers to frame installed, for successful shard pulls: transfer, decode and merge, not the wait for news (observed only with a clock).",
		nil, func() *stats.Histogram { return c.PullLatency() })
}

// BuildMergeRegistry assembles the full cmd/merge metric set — exactly
// what the merge node mounts at /metrics.
func BuildMergeRegistry(c *Coordinator, srv *query.Server, numPots int, now func() time.Time) *metrics.Registry {
	reg := metrics.NewRegistry()
	query.RegisterSourceMetrics(reg, c, numPots)
	RegisterCoordinatorMetrics(reg, c, now)
	query.RegisterServeMetrics(reg, srv)
	return reg
}

// BuildCollectorRegistry assembles the full cmd/shard metric set:
// source + engine + WAL writer health + serve rows, and (when a wire
// front is running) the wire session counters — exactly what the
// collector shard mounts at /metrics.
func BuildCollectorRegistry(eng *query.Engine, health func() wal.Health, front *WireFront, srv *query.Server, numPots int) *metrics.Registry {
	reg := metrics.NewRegistry()
	query.RegisterSourceMetrics(reg, eng, numPots)
	query.RegisterEngineMetrics(reg, eng)
	if health != nil {
		query.RegisterWALHealthMetrics(reg, health)
	}
	if front != nil {
		RegisterWireMetrics(reg, front)
	}
	query.RegisterServeMetrics(reg, srv)
	return reg
}
