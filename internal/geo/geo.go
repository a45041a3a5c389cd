// Package geo provides a deterministic synthetic Internet geography: a
// registry of countries, autonomous systems, and IPv4 prefix allocations
// with MaxMind-style lookups. The paper geolocated ~2.1M client IPs from
// 17.7k ASes with a commercial database; this registry substitutes a
// reproducible allocation with the same lookup interface, so that both
// honeypot placement and client-population analyses have a consistent
// IP → (country, continent, AS) mapping.
package geo

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
)

// Continent identifies one of the six populated continents.
type Continent uint8

// Continent values.
const (
	Africa Continent = iota
	Asia
	Europe
	NorthAmerica
	Oceania
	SouthAmerica
	numContinents
)

var continentNames = [...]string{"Africa", "Asia", "Europe", "North America", "Oceania", "South America"}

// String returns the continent's English name.
func (c Continent) String() string {
	if int(c) < len(continentNames) {
		return continentNames[c]
	}
	return fmt.Sprintf("Continent(%d)", uint8(c))
}

// Country describes one country in the registry.
type Country struct {
	Code      string // ISO 3166-1 alpha-2
	Name      string
	Continent Continent
	// ClientWeight is the relative share of the synthetic client population
	// originating in this country, calibrated to the paper's Figure 10
	// (China 31%, India 9%, US 8%, ...).
	ClientWeight float64
}

// NetworkType classifies the access type of an AS, used to bias honeypot
// placement toward residential networks as the paper's deployment did.
type NetworkType uint8

// NetworkType values.
const (
	Residential NetworkType = iota
	Datacenter
	Enterprise
	Mobile
)

func (t NetworkType) String() string {
	switch t {
	case Residential:
		return "residential"
	case Datacenter:
		return "datacenter"
	case Enterprise:
		return "enterprise"
	case Mobile:
		return "mobile"
	}
	return fmt.Sprintf("NetworkType(%d)", uint8(t))
}

// AS describes one autonomous system.
type AS struct {
	ASN     uint32
	Country string // ISO code, indexes Registry.Countries
	Type    NetworkType
	// prefix base and size: the AS owns IPs [Base, Base+Size).
	Base uint32
	Size uint32
}

// Location is the result of a lookup.
type Location struct {
	IP        netip.Addr
	Country   string
	Continent Continent
	ASN       uint32
	Type      NetworkType
}

// Registry is an immutable synthetic Internet: countries, ASes, and the
// prefix table mapping every allocatable IPv4 address to an AS. Build one
// with NewRegistry; it is safe for concurrent use afterwards.
type Registry struct {
	countries []Country
	byCode    map[string]int
	ases      []AS // sorted by Base
	// asesByCountry[i] lists indexes into ases for countries[i].
	asesByCountry [][]int
	cumWeight     []float64 // cumulative client weights for sampling
	totalWeight   float64
}

// Config controls registry construction.
type Config struct {
	// Seed drives all randomized allocation decisions.
	Seed int64
}

// DefaultASTotal is the approximate number of ASes, matching the paper's
// "more than 17.7 thousand networks".
const DefaultASTotal = 17700

// NewRegistry builds the synthetic Internet. The same Config always yields
// the identical registry; all randomness derives from cfg.Seed.
func NewRegistry(cfg Config) *Registry {
	rng := rand.New(rand.NewSource(cfg.Seed))
	r := &Registry{
		countries: append([]Country(nil), worldCountries...),
		byCode:    make(map[string]int, len(worldCountries)),
	}
	for i, c := range r.countries {
		r.byCode[c.Code] = i
	}
	r.asesByCountry = make([][]int, len(r.countries))

	// Distribute ASes over countries proportionally to client weight with
	// a floor of 3 so every country has networks to place honeypots in.
	var wsum float64
	for _, c := range r.countries {
		wsum += c.ClientWeight
	}
	asn := uint32(1000)
	base := uint32(0x0a000000) // allocate from a synthetic pool starting at 10.0.0.0
	for i, c := range r.countries {
		n := int(float64(DefaultASTotal)*c.ClientWeight/wsum + 0.5)
		if n < 3 {
			n = 3
		}
		for j := 0; j < n; j++ {
			// Heavy-tailed prefix sizes: a few /16-sized ASes, many /22-sized.
			var size uint32
			switch rng.Intn(10) {
			case 0:
				size = 1 << 16
			case 1, 2:
				size = 1 << 14
			default:
				size = 1 << 10
			}
			typ := Residential
			switch rng.Intn(10) {
			case 0, 1:
				typ = Datacenter
			case 2:
				typ = Enterprise
			case 3:
				typ = Mobile
			}
			idx := len(r.ases)
			r.ases = append(r.ases, AS{ASN: asn, Country: c.Code, Type: typ, Base: base, Size: size})
			r.asesByCountry[i] = append(r.asesByCountry[i], idx)
			asn++
			base += size
		}
	}
	sort.Slice(r.ases, func(a, b int) bool { return r.ases[a].Base < r.ases[b].Base })
	// Rebuild indexes after the sort.
	for i := range r.asesByCountry {
		r.asesByCountry[i] = r.asesByCountry[i][:0]
	}
	for i, as := range r.ases {
		ci := r.byCode[as.Country]
		r.asesByCountry[ci] = append(r.asesByCountry[ci], i)
	}
	r.cumWeight = make([]float64, len(r.countries))
	acc := 0.0
	for i, c := range r.countries {
		acc += c.ClientWeight
		r.cumWeight[i] = acc
	}
	r.totalWeight = acc
	return r
}

// Countries returns the registry's country table.
func (r *Registry) Countries() []Country { return r.countries }

// CountryByCode returns the country with the given ISO code.
func (r *Registry) CountryByCode(code string) (Country, bool) {
	i, ok := r.byCode[code]
	if !ok {
		return Country{}, false
	}
	return r.countries[i], true
}

// NumASes returns the total number of allocated ASes.
func (r *Registry) NumASes() int { return len(r.ases) }

// ASes returns the AS table, sorted by prefix base.
func (r *Registry) ASes() []AS { return r.ases }

// Lookup maps an IPv4 address (as uint32) to its location. The second
// return is false for addresses outside the allocated pool.
func (r *Registry) Lookup(ip uint32) (Location, bool) {
	i := sort.Search(len(r.ases), func(i int) bool { return r.ases[i].Base > ip })
	if i == 0 {
		return Location{}, false
	}
	as := r.ases[i-1]
	if ip >= as.Base+as.Size {
		return Location{}, false
	}
	ci := r.byCode[as.Country]
	return Location{
		IP:        Uint32ToAddr(ip),
		Country:   as.Country,
		Continent: r.countries[ci].Continent,
		ASN:       as.ASN,
		Type:      as.Type,
	}, true
}

// LookupAddr maps a netip.Addr to its location.
func (r *Registry) LookupAddr(a netip.Addr) (Location, bool) {
	if !a.Is4() {
		return Location{}, false
	}
	return r.Lookup(AddrToUint32(a))
}

// SampleCountry draws a country index according to the client weights.
func (r *Registry) SampleCountry(rng *rand.Rand) int {
	x := rng.Float64() * r.totalWeight
	return sort.SearchFloat64s(r.cumWeight, x)
}

// SampleClientIP draws an IP from the given country, or from the global
// weight distribution when countryIdx is negative. Results are uniform
// within a random AS of the country.
func (r *Registry) SampleClientIP(rng *rand.Rand, countryIdx int) uint32 {
	if countryIdx < 0 {
		countryIdx = r.SampleCountry(rng)
	}
	list := r.asesByCountry[countryIdx]
	as := r.ases[list[rng.Intn(len(list))]]
	return as.Base + uint32(rng.Intn(int(as.Size)))
}

// ASesIn returns the ASes allocated to a country, or nil for unknown
// codes.
func (r *Registry) ASesIn(code string) []AS {
	i, ok := r.byCode[code]
	if !ok {
		return nil
	}
	out := make([]AS, len(r.asesByCountry[i]))
	for j, idx := range r.asesByCountry[i] {
		out[j] = r.ases[idx]
	}
	return out
}

// Uint32ToAddr converts a uint32 IPv4 value to netip.Addr.
func Uint32ToAddr(ip uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)})
}

// AddrToUint32 converts an IPv4 netip.Addr to its uint32 value.
func AddrToUint32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// SameRegion classifies the geographic relationship between two locations,
// used by the paper's "regional diversity" analysis (Figure 16).
type Region uint8

// Region relationship values.
const (
	SameCountry Region = iota
	SameContinent
	OtherContinent
)

func (g Region) String() string {
	switch g {
	case SameCountry:
		return "same-country"
	case SameContinent:
		return "same-continent"
	case OtherContinent:
		return "other-continent"
	}
	return fmt.Sprintf("Region(%d)", uint8(g))
}

// Relation reports the geographic relation between client and honeypot
// locations.
func Relation(client, honeypot Location) Region {
	if client.Country == honeypot.Country {
		return SameCountry
	}
	if client.Continent == honeypot.Continent {
		return SameContinent
	}
	return OtherContinent
}
