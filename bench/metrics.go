package main

// The metric catalogue (names and units, which BENCHMARK.json repeats
// with direction and bound) and the arithmetic behind the numbers:
// quantiles, allocation and CPU deltas, peak memory.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what a --trace 0 run prints. What each name means on
// each workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"recover_records_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a --trace 1 run prints. A layer the workload does
// not drive reads 0 there.
var perLayer = []metricDef{
	{"sshwire.handshake_us", "us"},
	{"sshwire.handshake_allocs", "count"},
	{"sshwire.handshake_bytes", "B"},
	{"sshwire.auth_attempt_us", "us"},
	{"telnet.login_us", "us"},
	{"telnet.login_allocs", "count"},
	{"shell.new_us", "us"},
	{"shell.script_us", "us"},
	{"shell.script_allocs", "count"},
	{"honeypot.ssh_session_us", "us"},
	{"honeypot.telnet_session_us", "us"},
	{"honeypot.record_bytes", "B"},
	{"shard.wirefront.accepted", "count"},
	{"shard.wirefront.refused", "count"},
	{"shard.wirefront.open_conns_max", "count"},
	{"wal.append_b1_us_per_rec", "us"},
	{"wal.append_b500_us_per_rec", "us"},
	{"wal.append_b4096_us_per_rec", "us"},
	{"wal.sync_us", "us"},
	{"wal.append_busy_share", "ratio"},
	{"wal.bytes_per_rec", "B"},
	{"wal.open_us_per_rec", "us"},
	{"wal.open_alloc_b_per_rec", "B"},
	{"wal.open_allocs_per_rec", "count"},
	{"query.engine.fold_us_per_rec", "us"},
	{"query.engine.ingest_b1_us_per_rec", "us"},
	{"query.engine.seals", "count"},
	{"query.engine.seal_ms_at_200k", "ms"},
	{"query.engine.seal_ms_at_600k", "ms"},
	{"query.engine.clients_at_600k", "count"},
	{"query.engine.seal_busy_share", "ratio"},
	{"query.engine.ingest_call_p50_ms", "ms"},
	{"query.engine.ingest_call_p99_ms", "ms"},
	{"analysis.partials.encode_ms", "ms"},
	{"analysis.partials.frame_bytes", "B"},
	{"analysis.partials.decode_ms", "ms"},
	{"analysis.partials.merge_ms", "ms"},
	{"analysis.partials.materialize_ms", "ms"},
	{"shard.coordinator.pulls", "count"},
	{"shard.coordinator.pull_failures", "count"},
	{"shard.coordinator.pull_p50_ms", "ms"},
	{"shard.coordinator.pull_p99_ms", "ms"},
	{"shard.coordinator.seq_lag_p50_records", "count"},
	{"query.server.render_uncached_us", "us"},
	{"query.server.render_cached_us", "us"},
	{"query.server.revalidate_us", "us"},
	{"query.server.cache_hit_share", "ratio"},
	{"query.server.shed", "count"},
	{"query.server.get_p50_ms", "ms"},
	{"query.server.get_p99_ms", "ms"},
	{"workload.simulate_records_per_s", "1/s"},
	{"loadgen.slip_p50_ms", "ms"},
	{"loadgen.slip_p99_ms", "ms"},
	{"loadgen.slip_max_ms", "ms"},
	{"loadgen.achieved_over_offered", "ratio"},
	{"loadgen.session_p99_ms", "ms"},
	{"loadgen.open_session_p50_ms", "ms"},
	{"loadgen.open_session_p99_ms", "ms"},
	{"loadgen.feed_late_p50_ms", "ms"},
	{"loadgen.feed_late_p99_ms", "ms"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cpu_share", "ratio"},
	{"reconcile.covered_share", "ratio"},
	{"trace.spans", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.sessions_per_s", "1/s"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank quantile of vs; it sorts a copy. An
// empty sample reads 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// memCount is the allocator's running totals.
type memCount struct{ mallocs, bytes uint64 }

func readMem() memCount {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCount{m.Mallocs, m.TotalAlloc}
}

// cpuCount is the runtime's CPU accounting: seconds spent in the
// collector and seconds spent not idle.
type cpuCount struct{ gc, busy float64 }

func readCPU() cpuCount {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuCount{gc: f(0), busy: f(1) - f(2)}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
