package analysis

import (
	"net/netip"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/stats"
	"honeyfarm/internal/store"
)

// ClientStat aggregates one client IP across the dataset.
type ClientStat struct {
	IP         string
	Sessions   int
	Honeypots  int   // distinct honeypots contacted (Figure 12)
	ActiveDays int   // distinct days seen (Figure 13)
	Categories uint8 // bitmask of categories the IP appeared in
}

// HasCategory reports whether the client had a session in category c.
func (c ClientStat) HasCategory(cat Category) bool {
	return c.Categories&(1<<cat) != 0
}

// NumCategoriesSeen counts the distinct categories the IP appeared in;
// the paper reports >40% of IPs are multi-category.
func (c ClientStat) NumCategoriesSeen() int {
	n := 0
	for cat := Category(0); cat < NumCategories; cat++ {
		if c.HasCategory(cat) {
			n++
		}
	}
	return n
}

// clientAcc is one client IP's partial aggregate.
type clientAcc struct {
	sessions int
	pots     intSet
	days     intSet
	cats     uint8
}

// ComputeClientStats aggregates every client IP. Pass cat = -1 for all
// categories or a specific Category to restrict (for the per-category
// ECDFs of Figures 12 and 13). The scan fans out over record ranges
// into ClientAccum partials with a union/sum reduce, and the result is
// sorted by IP — the map iteration order of the old implementation
// leaked into the output and broke the determinism contract.
func ComputeClientStats(s *store.Store, cat int) []ClientStat {
	acc := mapReduce(s.Records(),
		func(recs []*honeypot.SessionRecord) *ClientAccum {
			a := NewClientAccum(cat)
			for _, r := range recs {
				a.Add(r, s.Day(r.Start))
			}
			return a
		},
		func(dst, src *ClientAccum) *ClientAccum {
			dst.Merge(src)
			return dst
		})
	return acc.Finalize()
}

// HoneypotsPerClientECDF is Figure 12: the distribution of how many
// honeypots each client contacts.
func HoneypotsPerClientECDF(clients []ClientStat) *stats.ECDF {
	e := new(stats.ECDF)
	for _, c := range clients {
		e.Add(float64(c.Honeypots))
	}
	e.Sort()
	return e
}

// ActiveDaysECDF is Figure 13: the distribution of per-client active
// days.
func ActiveDaysECDF(clients []ClientStat) *stats.ECDF {
	e := new(stats.ECDF)
	for _, c := range clients {
		e.Add(float64(c.ActiveDays))
	}
	e.Sort()
	return e
}

// MultiCategoryShare returns the fraction of client IPs active in more
// than one category (the paper: "more than 40%").
func MultiCategoryShare(clients []ClientStat) float64 {
	if len(clients) == 0 {
		return 0
	}
	multi := 0
	for _, c := range clients {
		if c.NumCategoriesSeen() > 1 {
			multi++
		}
	}
	return float64(multi) / float64(len(clients))
}

// CountryCount is one country's client population.
type CountryCount struct {
	Country string
	Clients int
}

// locate resolves a dotted-quad client IP in the registry. The bool is
// false for unparseable or unallocated addresses.
func locate(reg *geo.Registry, ip string) (geo.Location, bool) {
	a, err := netip.ParseAddr(ip)
	if err != nil {
		return geo.Location{}, false
	}
	return reg.LookupAddr(a)
}

// ClientCountries is Figure 10/23: unique client IPs per country,
// optionally restricted to a category set (nil means all). The result is
// sorted descending by count (country name as tie-break). The scan fans
// out over record ranges into CountryAccum partials; registry lookups
// are pure reads, and the per-country IP sets union in the reduce.
func ClientCountries(s *store.Store, reg *geo.Registry, cats map[Category]bool) []CountryCount {
	acc := mapReduce(s.Records(),
		func(recs []*honeypot.SessionRecord) *CountryAccum {
			a := NewCountryAccum(reg, cats)
			for _, r := range recs {
				a.Add(r)
			}
			return a
		},
		func(dst, src *CountryAccum) *CountryAccum {
			dst.Merge(src)
			return dst
		})
	return acc.Finalize()
}

func sortCountryCounts(cc []CountryCount) {
	for i := 1; i < len(cc); i++ {
		for j := i; j > 0 && (cc[j].Clients > cc[j-1].Clients ||
			(cc[j].Clients == cc[j-1].Clients && cc[j].Country < cc[j-1].Country)); j-- {
			cc[j], cc[j-1] = cc[j-1], cc[j]
		}
	}
}

// DailyUniqueClients is Figure 11: per-day unique client IPs for each
// category.
func DailyUniqueClients(s *store.Store) [][NumCategories]int {
	days := s.NumDays()
	sets := make([][NumCategories]map[string]struct{}, days)
	for d := range sets {
		for c := range sets[d] {
			sets[d][c] = make(map[string]struct{})
		}
	}
	for _, r := range s.Records() {
		d := s.Day(r.Start)
		if d < 0 || d >= days {
			continue
		}
		sets[d][Classify(r)][r.ClientIP] = struct{}{}
	}
	out := make([][NumCategories]int, days)
	for d := range sets {
		for c := range sets[d] {
			out[d][c] = len(sets[d][c])
		}
	}
	return out
}

// ComboKey identifies a combination of the three headline categories
// the paper tracks in Figure 15 (NO_CRED, FAIL_LOG, CMD) as a bitmask:
// bit 0 = NO_CRED, bit 1 = FAIL_LOG, bit 2 = CMD.
type ComboKey uint8

// ComboName renders a combo bitmask, e.g. "NO_CRED+CMD".
func (k ComboKey) String() string {
	names := []string{"NO_CRED", "FAIL_LOG", "CMD"}
	s := ""
	for i, n := range names {
		if k&(1<<i) != 0 {
			if s != "" {
				s += "+"
			}
			s += n
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// CategoryCombosDaily is Figure 15: for each day, how many client IPs
// fall into each combination of {NO_CRED, FAIL_LOG, CMD} activity on
// that same day.
func CategoryCombosDaily(s *store.Store) []map[ComboKey]int {
	days := s.NumDays()
	perDay := make([]map[string]ComboKey, days)
	for d := range perDay {
		perDay[d] = make(map[string]ComboKey)
	}
	for _, r := range s.Records() {
		d := s.Day(r.Start)
		if d < 0 || d >= days {
			continue
		}
		var bit ComboKey
		switch Classify(r) {
		case NoCred:
			bit = 1
		case FailLog:
			bit = 2
		case Cmd, CmdURI:
			bit = 4
		default:
			continue
		}
		perDay[d][r.ClientIP] |= bit
	}
	out := make([]map[ComboKey]int, days)
	for d := range perDay {
		out[d] = make(map[ComboKey]int)
		for _, k := range perDay[d] {
			out[d][k]++
		}
	}
	return out
}

// TotalComboCounts sums Figure 15 over the full period using each IP's
// all-time combo (the paper: ">700k IPs are only involved in scanning").
func TotalComboCounts(s *store.Store) map[ComboKey]int {
	perIP := make(map[string]ComboKey)
	for _, r := range s.Records() {
		var bit ComboKey
		switch Classify(r) {
		case NoCred:
			bit = 1
		case FailLog:
			bit = 2
		case Cmd, CmdURI:
			bit = 4
		default:
			continue
		}
		perIP[r.ClientIP] |= bit
	}
	out := make(map[ComboKey]int)
	for _, k := range perIP {
		out[k]++
	}
	return out
}
