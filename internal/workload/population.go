package workload

import (
	"math/rand"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/geo"
)

// actor is one client IP with a role, a personal honeypot set, and a
// schedule of active days.
type actor struct {
	ip        string
	pots      []int
	country   int // registry country index, -1 if unknown
	potCursor int // cycles pots so the fan-out is actually realized
	// potSet holds pots, built the first time potFor has cycled them all.
	potSet bitset
}

// population manages per-category actor pools with churn, producing the
// paper's client-side distributions: fan-out (Figure 12), lifespan
// (Figure 13), multi-role IPs (Section 7.5), and the country mix
// (Figure 10).
type population struct {
	rng      *rand.Rand
	reg      *geo.Registry
	numPots  int
	numDays  int
	pots     *Sampler
	schedule [analysis.NumCategories][][]*actor // [cat][day] -> actors active
	cursor   [analysis.NumCategories][]int      // per-day round-robin cursor
	// ruPool is the dedicated datacenter prefix population behind the
	// paper's NO_CMD windows.
	ruPool []*actor

	actors int // total created, for reporting
}

func newPopulation(rng *rand.Rand, reg *geo.Registry, numPots, numDays int, potWeights []float64) *population {
	p := &population{
		rng:     rng,
		reg:     reg,
		numPots: numPots,
		numDays: numDays,
		pots:    NewSampler(potWeights),
	}
	for c := range p.schedule {
		p.schedule[c] = make([][]*actor, numDays)
		p.cursor[c] = make([]int, numDays)
	}
	return p
}

// fromPool returns a random actor already active in category c on day
// d, or nil when the pool is empty. Used for the cross-category client
// reuse behind the paper's multi-role IPs.
func (p *population) fromPool(c analysis.Category, d int, rng *rand.Rand) *actor {
	pool := p.schedule[c][d]
	if len(pool) == 0 {
		return nil
	}
	return pool[rng.Intn(len(pool))]
}

// newActor creates an actor starting on day d with a sampled fan-out
// and lifespan, registers it in the given categories' schedules, and
// returns it.
func (p *population) newActor(d int, cats ...analysis.Category) *actor {
	country := p.reg.SampleCountry(p.rng)
	ip := geo.Uint32ToAddr(p.reg.SampleClientIP(p.rng, country)).String()
	k := FanoutDistribution(p.rng, p.numPots)
	a := &actor{
		ip:      ip,
		pots:    p.pots.SampleK(p.rng, k),
		country: country,
	}
	p.actors++
	// A fan-out is only real if the client sends enough sessions to
	// visit it: wide scanners stay active long enough to cover their
	// personal honeypot set (Figure 12's 18% > 10 pots, 2% > half).
	lifespan := LifespanDistribution(p.rng, p.numDays)
	if k > 10 && lifespan < 12 {
		lifespan = 12 + p.rng.Intn(20)
	}
	if k > p.numPots/2 && lifespan < 60 {
		lifespan = 60 + p.rng.Intn(120)
	}
	days := p.activeDays(d, lifespan)
	for _, c := range cats {
		for _, day := range days {
			p.schedule[c][day] = append(p.schedule[c][day], a)
		}
	}
	return a
}

// activeDays picks an actor's active-day list: the start day plus
// (lifespan-1) further days, mostly clustered after the start (the
// paper finds CMD+URI clients active on consecutive days).
func (p *population) activeDays(start, lifespan int) []int {
	days := []int{start}
	if lifespan <= 1 {
		return days
	}
	for d := start; len(days) < lifespan; {
		// Mostly the next day; sometimes a gap.
		gap := 1
		if p.rng.Float64() < 0.25 {
			gap += p.rng.Intn(14)
		}
		d += gap
		if d >= p.numDays {
			break
		}
		days = append(days, d)
	}
	return days
}

// newEphemeral creates a scan-and-go client: one day, one to three
// honeypots. The bulk of the paper's 2.1M client IPs appear exactly
// once, which is what makes small-window IP blocklists ineffective
// (Section 7.2).
func (p *population) newEphemeral(d int, c analysis.Category) *actor {
	country := p.reg.SampleCountry(p.rng)
	a := &actor{
		ip:      geo.Uint32ToAddr(p.reg.SampleClientIP(p.rng, country)).String(),
		pots:    p.pots.SampleK(p.rng, 1+p.rng.Intn(3)),
		country: country,
	}
	p.actors++
	p.schedule[c][d] = append(p.schedule[c][d], a)
	return a
}

// pick returns an actor for one category-c session on day d, creating
// actors when the day's pool is below target. target is the number of
// distinct actors the day should have (quota / sessions-per-actor).
func (p *population) pick(c analysis.Category, d, target int) *actor {
	pool := p.schedule[c][d]
	if len(pool) < target {
		return p.newActor(d, c)
	}
	i := p.cursor[c][d] % len(pool)
	p.cursor[c][d]++
	// Light randomization so per-actor session counts vary.
	if p.rng.Float64() < 0.3 {
		i = p.rng.Intn(len(pool))
	}
	return pool[i]
}

// ruActor returns an actor from the dedicated datacenter prefix pool
// (created lazily): 24 contiguous addresses in one Russian datacenter
// AS, the "single prefix" the paper traces the NO_CMD windows to.
func (p *population) ruActor() *actor {
	if len(p.ruPool) == 0 {
		var base uint32
		ases := p.reg.ASesIn("RU")
		for _, as := range ases {
			if as.Type == geo.Datacenter {
				base = as.Base
				break
			}
		}
		if base == 0 && len(ases) > 0 {
			base = ases[0].Base
		} else if base == 0 {
			base = p.reg.SampleClientIP(p.rng, -1)
		}
		for i := uint32(0); i < 24; i++ {
			k := p.numPots
			if p.numPots > 10 {
				k = 10 + p.rng.Intn(p.numPots-10)
			}
			p.ruPool = append(p.ruPool, &actor{
				ip:   geo.Uint32ToAddr(base + i).String(),
				pots: p.pots.SampleK(p.rng, k),
			})
			p.actors++
		}
	}
	return p.ruPool[p.rng.Intn(len(p.ruPool))]
}

// pot picks the honeypot for one of the actor's sessions. The first
// pass cycles the personal set (so k distinct honeypots really are
// contacted after k sessions); afterwards the choice is weighted by
// global honeypot visibility, preserving Figure 2's popularity contrast
// even for wide scanners. When spikeSet is non-empty the session routes
// there (spikes are visible at only a few honeypots).
func (p *population) potFor(a *actor, rng *rand.Rand, spikeSet []int) int {
	if len(spikeSet) > 0 {
		return spikeSet[rng.Intn(len(spikeSet))]
	}
	if a.potCursor < len(a.pots) {
		i := a.potCursor
		a.potCursor++
		return a.pots[i]
	}
	if a.potSet == nil {
		a.potSet = make(bitset, (p.numPots+63)/64)
		for _, x := range a.pots {
			a.potSet.set(x)
		}
	}
	for t := 0; t < 4; t++ {
		if g := p.pots.Sample(rng); a.potSet.has(g) {
			return g
		}
	}
	return a.pots[rng.Intn(len(a.pots))]
}
