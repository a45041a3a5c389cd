package geo

import (
	"fmt"
	"math/rand"
)

// Deployment describes one honeypot's placement in the synthetic Internet.
type Deployment struct {
	ID      int    // honeypot index, 0-based
	Name    string // stable identifier, e.g. "hp-042"
	IP      uint32
	Country string
	ASN     uint32
}

// PlacementConfig controls honeyfarm placement.
type PlacementConfig struct {
	Seed       int64
	NumPots    int      // number of honeypots; the paper's farm has 221
	NumASes    int      // distinct networks; zero selects min(65, NumPots), the paper's 65
	Countries  []string // ISO codes; nil selects the first NumPots of HoneyfarmCountries (55)
	Registry   *Registry
	Residental bool // prefer residential ASes, as the paper's deployment did
}

// Place assigns honeypots to countries and ASes. Every listed country
// receives at least one honeypot; the surplus concentrates in the first
// few countries (the paper notes the US and Singapore host multiple
// honeypots while most countries host a single one). Exactly cfg.NumASes
// distinct ASes are used across the farm. All randomness derives from
// cfg.Seed.
func Place(cfg PlacementConfig) ([]Deployment, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Registry == nil {
		return nil, fmt.Errorf("geo: placement requires a registry")
	}
	if cfg.NumPots < 1 {
		return nil, fmt.Errorf("geo: placement needs at least one honeypot, got %d", cfg.NumPots)
	}
	countries := cfg.Countries
	if countries == nil {
		countries = HoneyfarmCountries[:min(cfg.NumPots, len(HoneyfarmCountries))]
	}
	if cfg.NumASes == 0 {
		cfg.NumASes = min(65, cfg.NumPots)
	}
	if cfg.NumPots < len(countries) {
		return nil, fmt.Errorf("geo: %d honeypots cannot cover %d countries", cfg.NumPots, len(countries))
	}
	if cfg.NumASes < len(countries) {
		return nil, fmt.Errorf("geo: %d ASes cannot cover %d countries", cfg.NumASes, len(countries))
	}
	r := cfg.Registry

	// Per-country honeypot counts: one each, then concentrate the surplus
	// in the head of the list with geometrically decaying shares.
	counts := make([]int, len(countries))
	for i := range counts {
		counts[i] = 1
	}
	surplus := cfg.NumPots - len(countries)
	share := 0.45
	for i := 0; i < len(countries) && surplus > 0; i++ {
		n := int(float64(surplus)*share + 0.5)
		if i == len(countries)-1 || n > surplus {
			n = surplus
		}
		counts[i] += n
		surplus -= n
		share *= 0.82
	}
	// Anything left trickles one-by-one over the head.
	for i := 0; surplus > 0; i = (i + 1) % len(countries) {
		counts[i]++
		surplus--
	}

	// Per-country AS counts: one each, extra ASes go to countries with the
	// most honeypots.
	asCounts := make([]int, len(countries))
	for i := range asCounts {
		asCounts[i] = 1
	}
	extraAS := cfg.NumASes - len(countries)
	for i := 0; extraAS > 0; i = (i + 1) % len(countries) {
		if asCounts[i] < counts[i] { // no more ASes than honeypots per country
			asCounts[i]++
			extraAS--
		} else if allSaturated(asCounts, counts) {
			asCounts[0]++
			extraAS--
		}
	}

	var out []Deployment
	used := make(map[uint32]bool) // IPs already assigned
	for ci, code := range countries {
		idx, ok := r.byCode[code]
		if !ok {
			return nil, fmt.Errorf("geo: unknown country %q", code)
		}
		pool := r.asesByCountry[idx]
		if len(pool) == 0 {
			return nil, fmt.Errorf("geo: no ASes allocated in %s", code)
		}
		// Pick asCounts[ci] distinct ASes, preferring residential ones.
		chosen := chooseASes(rng, r, pool, asCounts[ci], cfg.Residental)
		for j := 0; j < counts[ci]; j++ {
			as := r.ases[chosen[j%len(chosen)]]
			ip, ok := pickUnusedIP(rng, as, used)
			if !ok {
				return nil, fmt.Errorf("geo: AS%d in %s has no free addresses for honeypot placement", as.ASN, code)
			}
			used[ip] = true
			id := len(out)
			out = append(out, Deployment{
				ID:      id,
				Name:    fmt.Sprintf("hp-%03d", id),
				IP:      ip,
				Country: code,
				ASN:     as.ASN,
			})
		}
	}
	return out, nil
}

// pickUnusedIP draws an address of as not yet in used: rejection
// sampling with an iteration cap (the expected try count is ~1 since
// farms are far smaller than prefixes), then a deterministic linear
// probe so a near-saturated AS still terminates.
func pickUnusedIP(rng *rand.Rand, as AS, used map[uint32]bool) (uint32, bool) {
	for tries := 0; tries < 64; tries++ {
		ip := as.Base + uint32(rng.Intn(int(as.Size)))
		if !used[ip] {
			return ip, true
		}
	}
	for off := uint32(0); off < as.Size; off++ {
		if ip := as.Base + off; !used[ip] {
			return ip, true
		}
	}
	return 0, false
}

func allSaturated(asCounts, counts []int) bool {
	for i := range asCounts {
		if asCounts[i] < counts[i] {
			return false
		}
	}
	return true
}

func chooseASes(rng *rand.Rand, r *Registry, pool []int, n int, preferResidential bool) []int {
	if n > len(pool) {
		n = len(pool)
	}
	perm := rng.Perm(len(pool))
	if preferResidential {
		// Stable partition: residential ASes first, keeping the shuffle
		// order within each class.
		res, other := make([]int, 0, len(perm)), make([]int, 0, len(perm))
		for _, p := range perm {
			if r.ases[pool[p]].Type == Residential {
				res = append(res, p)
			} else {
				other = append(other, p)
			}
		}
		perm = append(res, other...)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = pool[perm[i]]
	}
	return out
}
