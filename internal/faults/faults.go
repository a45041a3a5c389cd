// Package faults defines the honeyfarm's deterministic fault model: a
// seeded Plan describing connection losses (a session refused, reset or
// stalled before it delivers a record) and pot-level outage windows,
// plus the one capped-exponential Backoff policy that paces retries
// against a clock. The paper's farm ran in the real Internet for 486
// days, where honeypots crash and links flap; per-honeypot activity gaps
// are part of the measured signal, so the reproduction injects the same
// attrition — reproducibly.
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
// table. That table is the only fault accounting in the repository.
// Backoff is a fixed policy, independent of any plan, shared by the
// shard coordinator's pulls of a down shard and the WAL's append
// retries.
package faults

import (
	"fmt"
	"time"
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
}

// Outage is one pot-level downtime window, [FirstDay, LastDay]
// inclusive, in days since the observation epoch.
type Outage struct {
	Pot      int `json:"pot"`
	FirstDay int `json:"first_day"`
	LastDay  int `json:"last_day"`
}

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

// ---- derived decision streams ----

// streamSession tags the record-level session-drop stream. Its value is
// part of every faulted dataset's bytes.
const streamSession uint64 = 0x73657373

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

// Backoff returns the delay before retry attempt k (0-based):
// min(base·2^k, 2s). A base ≤ 0 means 25ms, which is what the shard
// coordinator and the WAL run with; only tests pass a smaller one.
func Backoff(base time.Duration, attempt int) time.Duration {
	const ceiling = 2 * time.Second
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	d := base
	for i := 0; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	return min(d, ceiling)
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
		}
	}
}
