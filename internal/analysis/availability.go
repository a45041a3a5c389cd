package analysis

// Per-honeypot availability: the paper's honeyfarm ran in the real
// Internet for 486 days, and per-honeypot activity gaps are part of the
// measured signal. This table joins the observed session counts with a
// fault plan's downtime and drop accounting so a faulted run reports
// what was lost per pot instead of silently shrinking the dataset.

import "honeyfarm/internal/faults"

// PotAvailability is one honeypot's row of the availability table.
type PotAvailability struct {
	Pot int
	// Sessions is the number of records the pot actually collected.
	Sessions int
	// DownDays is how many observation days the pot spent inside outage
	// windows; Availability is the complementary uptime fraction.
	DownDays     int
	Availability float64
	// DowntimeDrops counts sessions lost to outage windows and ConnDrops
	// those lost to connection-level faults (refuse/reset/stall).
	DowntimeDrops int
	ConnDrops     int
}

// AvailabilityFromPer builds the per-pot availability table of a run
// from its per-honeypot table. rep may be nil (a fault-free run): every
// pot then shows full availability and zero drops.
func AvailabilityFromPer(per []PerHoneypot, rep *faults.Report, days int) []PotAvailability {
	out := make([]PotAvailability, len(per))
	for i := range out {
		row := PotAvailability{Pot: i, Sessions: per[i].Sessions, Availability: 1}
		if rep != nil && i < len(rep.Pots) {
			pr := rep.Pots[i]
			row.DownDays = pr.DownDays
			row.DowntimeDrops = pr.DowntimeDrops
			row.ConnDrops = pr.ConnDrops
			if days > 0 {
				row.Availability = 1 - float64(pr.DownDays)/float64(days)
			}
		}
		out[i] = row
	}
	return out
}
