package geo

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	return NewRegistry(Config{Seed: 1})
}

func TestRegistryDeterministic(t *testing.T) {
	a := NewRegistry(Config{Seed: 42})
	b := NewRegistry(Config{Seed: 42})
	if a.NumASes() != b.NumASes() {
		t.Fatalf("AS counts differ: %d vs %d", a.NumASes(), b.NumASes())
	}
	for i := range a.ases {
		if a.ases[i] != b.ases[i] {
			t.Fatalf("AS %d differs: %+v vs %+v", i, a.ases[i], b.ases[i])
		}
	}
}

func TestRegistryASCount(t *testing.T) {
	r := testRegistry(t)
	n := r.NumASes()
	// Target is ~17.7k (paper's client-AS population); the per-country floor
	// adds a small surplus.
	if n < 15000 || n > 21000 {
		t.Errorf("NumASes = %d, want ≈%d", n, DefaultASTotal)
	}
}

func TestLookupRoundTrip(t *testing.T) {
	r := testRegistry(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		ci := r.SampleCountry(rng)
		ip := r.SampleClientIP(rng, ci)
		loc, ok := r.Lookup(ip)
		if !ok {
			t.Fatalf("Lookup(%d) failed for sampled IP", ip)
		}
		if loc.Country != r.countries[ci].Code {
			t.Fatalf("Lookup country = %s, want %s", loc.Country, r.countries[ci].Code)
		}
		inAS := false
		for _, as := range r.ASesIn(loc.Country) {
			if as.ASN == loc.ASN {
				inAS = ip >= as.Base && ip < as.Base+as.Size
			}
		}
		if !inAS {
			t.Fatalf("IP %d not inside AS %d range", ip, loc.ASN)
		}
	}
}

func TestLookupOutsidePool(t *testing.T) {
	r := testRegistry(t)
	if _, ok := r.Lookup(0); ok {
		t.Error("Lookup(0) should fail: below pool")
	}
	last := r.ases[len(r.ases)-1]
	if _, ok := r.Lookup(last.Base + last.Size); ok {
		t.Error("Lookup past last AS should fail")
	}
}

func TestSampleCountryDistribution(t *testing.T) {
	r := testRegistry(t)
	rng := rand.New(rand.NewSource(3))
	const n = 200000
	counts := make(map[string]int)
	for i := 0; i < n; i++ {
		counts[r.countries[r.SampleCountry(rng)].Code]++
	}
	// China should be ~31% (paper Section 7.1).
	cn := float64(counts["CN"]) / n
	if cn < 0.29 || cn > 0.33 {
		t.Errorf("CN share = %.3f, want ≈0.31", cn)
	}
	in := float64(counts["IN"]) / n
	if in < 0.07 || in > 0.11 {
		t.Errorf("IN share = %.3f, want ≈0.09", in)
	}
	us := float64(counts["US"]) / n
	if us < 0.06 || us > 0.10 {
		t.Errorf("US share = %.3f, want ≈0.08", us)
	}
}

func TestAddrConversion(t *testing.T) {
	a := netip.MustParseAddr("192.0.2.1")
	u := AddrToUint32(a)
	if got := Uint32ToAddr(u); got != a {
		t.Errorf("round trip = %v, want %v", got, a)
	}
}

func TestQuickAddrRoundTrip(t *testing.T) {
	f := func(ip uint32) bool {
		return AddrToUint32(Uint32ToAddr(ip)) == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelation(t *testing.T) {
	de := Location{Country: "DE", Continent: Europe}
	fr := Location{Country: "FR", Continent: Europe}
	jp := Location{Country: "JP", Continent: Asia}
	if Relation(de, de) != SameCountry {
		t.Error("DE-DE should be same-country")
	}
	if Relation(de, fr) != SameContinent {
		t.Error("DE-FR should be same-continent")
	}
	if Relation(de, jp) != OtherContinent {
		t.Error("DE-JP should be other-continent")
	}
}

// paperPlacement places the paper's farm: 221 honeypots over the 55
// countries and 65 ASes, residential focus.
func paperPlacement(t *testing.T, r *Registry, seed int64) []Deployment {
	t.Helper()
	deps, err := Place(PlacementConfig{
		Seed: seed, NumPots: 221, NumASes: 65, Countries: HoneyfarmCountries,
		Registry: r, Residental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return deps
}

func TestDefaultPlacement(t *testing.T) {
	r := testRegistry(t)
	deps := paperPlacement(t, r, 1)
	if len(deps) != 221 {
		t.Fatalf("len(deps) = %d, want 221", len(deps))
	}
	countries := make(map[string]int)
	ases := make(map[uint32]bool)
	ips := make(map[uint32]bool)
	for _, d := range deps {
		countries[d.Country]++
		ases[d.ASN] = true
		if ips[d.IP] {
			t.Fatalf("duplicate honeypot IP %d", d.IP)
		}
		ips[d.IP] = true
		loc, ok := r.Lookup(d.IP)
		if !ok || loc.Country != d.Country || loc.ASN != d.ASN {
			t.Fatalf("deployment %s inconsistent with registry: %+v vs %+v", d.Name, d, loc)
		}
	}
	if len(countries) != 55 {
		t.Errorf("countries = %d, want 55", len(countries))
	}
	if len(ases) != 65 {
		t.Errorf("ASes = %d, want 65", len(ases))
	}
	if countries["CN"] != 0 {
		t.Error("the paper's farm has no deployment in China")
	}
	// US and SG host multiple honeypots; many countries host exactly one.
	if countries["US"] < 2 || countries["SG"] < 2 {
		t.Errorf("US=%d SG=%d, both should host multiple honeypots", countries["US"], countries["SG"])
	}
	singles := 0
	for _, n := range countries {
		if n == 1 {
			singles++
		}
	}
	if singles < 28 {
		t.Errorf("only %d countries host a single honeypot; most should", singles)
	}
}

func TestPlacementErrors(t *testing.T) {
	r := testRegistry(t)
	if _, err := Place(PlacementConfig{Registry: r, NumPots: 10, Countries: HoneyfarmCountries}); err == nil {
		t.Error("expected error: fewer honeypots than countries")
	}
	if _, err := Place(PlacementConfig{Registry: r, NumPots: 221, NumASes: 10}); err == nil {
		t.Error("expected error: fewer ASes than countries")
	}
	if _, err := Place(PlacementConfig{NumPots: 221, NumASes: 65}); err == nil {
		t.Error("expected error: nil registry")
	}
	if _, err := Place(PlacementConfig{Registry: r, NumPots: 2, NumASes: 2, Countries: []string{"XX", "YY"}}); err == nil {
		t.Error("expected error: unknown country")
	}
}

func TestPlacementDeterministic(t *testing.T) {
	r := testRegistry(t)
	a := paperPlacement(t, r, 9)
	b := paperPlacement(t, r, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("deployment %d differs", i)
		}
	}
}

func TestContinentString(t *testing.T) {
	if Asia.String() != "Asia" || NorthAmerica.String() != "North America" {
		t.Error("continent names wrong")
	}
	if Continent(99).String() == "" {
		t.Error("out-of-range continent should still format")
	}
}

func TestNetworkTypeString(t *testing.T) {
	for typ, want := range map[NetworkType]string{
		Residential: "residential", Datacenter: "datacenter",
		Enterprise: "enterprise", Mobile: "mobile",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	r := NewRegistry(Config{Seed: 1})
	rng := rand.New(rand.NewSource(2))
	ips := make([]uint32, 1024)
	for i := range ips {
		ips[i] = r.SampleClientIP(rng, -1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Lookup(ips[i%len(ips)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkSampleClientIP(b *testing.B) {
	r := NewRegistry(Config{Seed: 1})
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SampleClientIP(rng, -1)
	}
}

func TestASesInAndSampleClientIP(t *testing.T) {
	r := testRegistry(t)
	ases := r.ASesIn("RU")
	if len(ases) == 0 {
		t.Fatal("RU should have ASes")
	}
	for _, as := range ases {
		if as.Country != "RU" {
			t.Errorf("AS %d country = %s", as.ASN, as.Country)
		}
	}
	if got := r.ASesIn("XX"); got != nil {
		t.Errorf("unknown country ASes = %v", got)
	}
	// A client IP sampled in RU lands inside one of RU's ASes.
	ip := r.SampleClientIP(rand.New(rand.NewSource(5)), r.byCode["RU"])
	inRU := false
	for _, as := range ases {
		inRU = inRU || (ip >= as.Base && ip < as.Base+as.Size)
	}
	if !inRU {
		t.Errorf("SampleClientIP(RU) = %d, outside every RU AS", ip)
	}
}

func TestCountryByCode(t *testing.T) {
	r := testRegistry(t)
	c, ok := r.CountryByCode("DE")
	if !ok || c.Name != "Germany" || c.Continent != Europe {
		t.Errorf("DE = %+v ok=%v", c, ok)
	}
	if _, ok := r.CountryByCode("ZZ"); ok {
		t.Error("unknown code should fail")
	}
}
