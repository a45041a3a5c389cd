package farm

// /metrics registration for the netsim farm supervisor: session
// acceptance and loss accounting, chaos counters, and per-pot
// liveness/attribution. Everything is read through funcs at scrape
// time from the same mutex-guarded Stats the supervisor maintains, so
// the ingest path gains no new synchronization.

import (
	"strconv"

	"honeyfarm/internal/metrics"
)

// AcceptedByPot returns the number of records pot i handed to the sink.
func (f *Farm) AcceptedByPot(i int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= len(f.acceptedByPot) {
		return 0
	}
	return f.acceptedByPot[i]
}

// RegisterFarmMetrics exports the supervisor's operational counters.
func RegisterFarmMetrics(reg *metrics.Registry, f *Farm) {
	reg.CounterFunc("honeyfarm_farm_sessions_accepted_total",
		"Session records a live pot handed to the farm's sink.",
		nil, func() float64 { return float64(f.Stats().Accepted) })
	reg.CounterFunc("honeyfarm_farm_records_dropped_total",
		"Session records dropped because their pot was down or the drain deadline passed.",
		nil, func() float64 { return float64(f.Stats().DroppedRecords) })
	reg.CounterFunc("honeyfarm_farm_durable_lost_total",
		"Accepted session records the sink refused (a degraded durable sink).",
		nil, func() float64 { return float64(f.Stats().DurableLost) })
	reg.CounterFunc("honeyfarm_farm_kills_total",
		"Pot takedowns (outage windows and Kill calls).",
		nil, func() float64 { return float64(f.Stats().Kills) })
	reg.CounterFunc("honeyfarm_farm_restarts_total",
		"Successful supervisor rebinds.",
		nil, func() float64 { return float64(f.Stats().Restarts) })
	reg.CounterFunc("honeyfarm_farm_conn_faults_total",
		"Dials the fault plan refused, reset, or stalled.",
		nil, func() float64 { return float64(f.Stats().ConnFaults) })
	for i := range f.deployments {
		pot := i
		labels := metrics.Labels{"pot": strconv.Itoa(pot)}
		reg.GaugeFunc("honeyfarm_farm_pot_up",
			"1 while the pot has bound listeners, else 0.",
			labels, func() float64 {
				if f.PotUp(pot) {
					return 1
				}
				return 0
			})
		reg.CounterFunc("honeyfarm_farm_pot_sessions_total",
			"Session records a live pot handed to the farm's sink, per pot.",
			labels, func() float64 { return float64(f.AcceptedByPot(pot)) })
	}
}
