// Package faults defines the honeyfarm's deterministic fault model: a
// seeded Plan describing connection losses (a session refused, reset or
// stalled before it delivers a record) and pot-level outage windows,
// plus the one capped-exponential Backoff policy. The paper's farm ran
// in the real Internet for 486 days, where honeypots crash and links
// flap; per-honeypot activity gaps are part of the measured signal, so
// the reproduction injects the same attrition — reproducibly.
//
// Every decision the plan makes is a pure function of (Plan.Seed, a
// stable index) through splitmix64-derived streams, the same mixing
// discipline as the workload's per-shard decoration streams (DESIGN.md
// §8). Two runs with the same seed and plan therefore drop the same
// sessions and down the same pots on the same days: datasets stay
// byte-identical.
//
// The plan is applied at the record level: internal/workload culls
// planned sessions that a fault would lose (pot down on the session's
// day, or the connection refused/reset/stalled) and accounts them in a
// Report, which the analysis layer turns into the per-pot availability
// table. Backoff paces what retries against a clock: the shard
// coordinator's pulls of a down shard and the WAL's append retries.
package faults

import (
	"fmt"
	"time"
)

// Defaults for the knobs a zero Plan leaves unset.
const (
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffCap  = 2 * time.Second
)

// Plan is a seeded, fully deterministic fault schedule. The zero value
// injects nothing; rates are probabilities in [0, 1]. Plans serialize
// as JSON for scenario files and cmd/reproduce -faults.
type Plan struct {
	// Seed drives every derived decision stream. Independent from the
	// generation seed so the same dataset can be faulted differently.
	Seed int64 `json:"seed"`

	// Connection-loss rates: the probability that a session is refused,
	// reset or stalled before it delivers a record. The three sum to the
	// record-level drop rate.
	RefuseRate float64 `json:"refuse_rate,omitempty"`
	ResetRate  float64 `json:"reset_rate,omitempty"`
	StallRate  float64 `json:"stall_rate,omitempty"`

	// Outages are pot-level downtime windows in observation-day terms,
	// inclusive on both ends.
	Outages []Outage `json:"outages,omitempty"`

	// Backoff policy: attempt k waits min(base<<k, cap) scaled by a
	// deterministic jitter factor in [0.5, 1). Defaults: 25ms base, 2s
	// cap.
	BackoffBaseMS int `json:"backoff_base_ms,omitempty"`
	BackoffCapMS  int `json:"backoff_cap_ms,omitempty"`
}

// Outage is one pot-level downtime window, [FirstDay, LastDay]
// inclusive, in days since the observation epoch.
type Outage struct {
	Pot      int `json:"pot"`
	FirstDay int `json:"first_day"`
	LastDay  int `json:"last_day"`
}

// Days returns the window length in days.
func (o Outage) Days() int { return o.LastDay - o.FirstDay + 1 }

// Validate checks rates and windows. A nil plan is valid (no faults).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for name, r := range map[string]float64{
		"refuse_rate": p.RefuseRate, "reset_rate": p.ResetRate,
		"stall_rate": p.StallRate,
	} {
		if r < 0 || r > 1 {
			return fmt.Errorf("faults: %s = %v out of [0,1]", name, r)
		}
	}
	if sum := p.RefuseRate + p.ResetRate + p.StallRate; sum > 1 {
		return fmt.Errorf("faults: refuse+reset+stall rates sum to %v > 1", sum)
	}
	if p.BackoffBaseMS < 0 || p.BackoffCapMS < 0 {
		return fmt.Errorf("faults: negative duration knob")
	}
	for i, o := range p.Outages {
		if o.Pot < 0 {
			return fmt.Errorf("faults: outage %d: negative pot %d", i, o.Pot)
		}
		if o.LastDay < o.FirstDay || o.FirstDay < 0 {
			return fmt.Errorf("faults: outage %d: bad window [%d, %d]", i, o.FirstDay, o.LastDay)
		}
	}
	return nil
}

// Active reports whether the plan injects anything at all.
func (p *Plan) Active() bool {
	return p != nil && (p.dropRate() > 0 || len(p.Outages) > 0)
}

// dropRate is the probability that a connection fault loses a session
// outright at the record level.
func (p *Plan) dropRate() float64 { return p.RefuseRate + p.ResetRate + p.StallRate }

// BackoffBase returns the first backoff delay.
func (p *Plan) BackoffBase() time.Duration {
	if p == nil || p.BackoffBaseMS <= 0 {
		return DefaultBackoffBase
	}
	return time.Duration(p.BackoffBaseMS) * time.Millisecond
}

// BackoffCap returns the maximum backoff delay.
func (p *Plan) BackoffCap() time.Duration {
	if p == nil || p.BackoffCapMS <= 0 {
		return DefaultBackoffCap
	}
	return time.Duration(p.BackoffCapMS) * time.Millisecond
}

// ---- derived decision streams ----

// Stream tags separate the plan's decision streams so that the
// session-drop draw never correlates with the backoff draw for the same
// index.
const (
	streamSession uint64 = 0x73657373 // record-level session drop
	streamBackoff uint64 = 0x626b6f66 // backoff jitter
)

// mix64 is the splitmix64 finalizer over (seed, stream, index) — the
// same mixing discipline as workload.shardSeed, so neighboring indexes
// get uncorrelated draws.
func mix64(seed int64, stream, i uint64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(i+1) + 0xd1b54a32d192ed03*stream
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a stream draw onto [0, 1).
func (p *Plan) unit(stream, i uint64) float64 {
	return float64(mix64(p.Seed, stream, i)>>11) / (1 << 53)
}

// DropsSession reports whether the record-level session at plan index i
// is lost to a connection fault: a refused, reset, or stalled
// connection never delivers a complete session record to the collector.
func (p *Plan) DropsSession(i uint64) bool {
	if p == nil {
		return false
	}
	r := p.dropRate()
	return r > 0 && p.unit(streamSession, i) < r
}

// PotDown reports whether pot is inside an outage window on day.
func (p *Plan) PotDown(pot, day int) bool {
	if p == nil {
		return false
	}
	for _, o := range p.Outages {
		if o.Pot == pot && day >= o.FirstDay && day <= o.LastDay {
			return true
		}
	}
	return false
}

// Backoff returns the delay before retry attempt k of the given pot (a
// shard index, for the coordinator): capped exponential with a
// deterministic jitter factor in [0.5, 1). Safe on a nil plan
// (defaults, no jitter), so the shard coordinator and the WAL use one
// policy whether or not faults are configured.
func (p *Plan) Backoff(pot, attempt int) time.Duration {
	base, ceil := p.BackoffBase(), p.BackoffCap()
	d := base
	for i := 0; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	if p == nil {
		return d
	}
	u := p.unit(streamBackoff, uint64(pot)<<20|uint64(attempt&0xfffff))
	return d/2 + time.Duration(float64(d/2)*u)
}

// ---- outcome accounting ----

// PotReport is one pot's fault accounting.
type PotReport struct {
	// DownDays is the number of observation days the pot spent inside
	// outage windows.
	DownDays int
	// DowntimeDrops counts sessions lost because the pot was down.
	DowntimeDrops int
	// ConnDrops counts sessions lost to connection-level faults.
	ConnDrops int
	// SinkDrops counts finished sessions the collector discarded. No
	// collector in this repository discards a record it was handed (a
	// live shard counts a WAL refusal on its own /metrics), so it reads
	// 0; the column stays in the availability schema beside the
	// fault-plan ones.
	SinkDrops int
}

// Report aggregates what a fault plan did to one run: the per-pot
// downtime and drop counters behind the analysis layer's availability
// table. Counters are filled by the workload decorators.
type Report struct {
	// Days is the observation period length the report covers.
	Days int
	// Pots is indexed by honeypot ID.
	Pots []PotReport
}

// NewReport sizes a report for numPots pots over days days and
// pre-computes each pot's DownDays from the plan's outage windows,
// clipped to the observation period. Accepts a nil plan.
func NewReport(p *Plan, numPots, days int) *Report {
	r := &Report{Days: days, Pots: make([]PotReport, numPots)}
	if p == nil {
		return r
	}
	for pot := range r.Pots {
		down := 0
		for day := 0; day < days; day++ {
			if p.PotDown(pot, day) {
				down++
			}
		}
		r.Pots[pot].DownDays = down
	}
	return r
}

// AddDowntimeDrop counts one session lost to an outage window.
func (r *Report) AddDowntimeDrop(pot int) {
	if pot >= 0 && pot < len(r.Pots) {
		r.Pots[pot].DowntimeDrops++
	}
}

// AddConnDrop counts one session lost to a connection fault.
func (r *Report) AddConnDrop(pot int) {
	if pot >= 0 && pot < len(r.Pots) {
		r.Pots[pot].ConnDrops++
	}
}

// AddDrops adds o's drop counters, pot by pot, to r's. DownDays are
// r's own and stay as they are.
func (r *Report) AddDrops(o *Report) {
	for pot := range o.Pots {
		if pot < len(r.Pots) {
			r.Pots[pot].DowntimeDrops += o.Pots[pot].DowntimeDrops
			r.Pots[pot].ConnDrops += o.Pots[pot].ConnDrops
			r.Pots[pot].SinkDrops += o.Pots[pot].SinkDrops
		}
	}
}

// TotalDropped sums every drop class over all pots.
func (r *Report) TotalDropped() int {
	total := 0
	for _, p := range r.Pots {
		total += p.DowntimeDrops + p.ConnDrops + p.SinkDrops
	}
	return total
}
