package analysis

import (
	"testing"
	"time"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/store"
)

func fileRec(day, hour, pot int, ip, hash string) *honeypot.SessionRecord {
	start := epoch.Add(time.Duration(day)*24*time.Hour + time.Duration(hour)*time.Hour)
	return &honeypot.SessionRecord{
		HoneypotID: pot, ClientIP: ip,
		Start: start, End: start.Add(time.Minute),
		Logins:   []honeypot.LoginAttempt{{User: "root", Password: "x", Success: true}},
		Commands: []honeypot.CommandRecord{{Input: "x", Known: true}},
		Files:    []honeypot.FileRecord{{Hash: hash, Op: "create"}},
	}
}

func TestFirstSeenLeaders(t *testing.T) {
	s := store.New(epoch)
	// Pot 0 sees h1 first (hour 1) and h2 first; pot 1 sees them later.
	s.Add(fileRec(0, 1, 0, "1.1.1.1", "h1"))
	s.Add(fileRec(0, 5, 1, "2.2.2.2", "h1"))
	s.Add(fileRec(1, 1, 0, "1.1.1.1", "h2"))
	s.Add(fileRec(2, 1, 1, "2.2.2.2", "h2"))
	s.Add(fileRec(3, 1, 1, "2.2.2.2", "h3"))

	fl := ComputeFirstSeenLeaders(s, 2, 1)
	if fl.FirstSeenCount[0] != 2 || fl.FirstSeenCount[1] != 1 {
		t.Errorf("first seen = %v", fl.FirstSeenCount)
	}
	// Pot 1 has the most unique hashes (3), pot 0 the most firsts (2):
	// top-1 sets differ, overlap 0.
	if fl.TopOverlap != 0 {
		t.Errorf("overlap = %v, want 0", fl.TopOverlap)
	}
	// With k=2 both pots are in both sets.
	fl2 := ComputeFirstSeenLeaders(s, 2, 2)
	if fl2.TopOverlap != 1 {
		t.Errorf("k=2 overlap = %v, want 1", fl2.TopOverlap)
	}
}

func TestFederationGain(t *testing.T) {
	s := store.New(epoch)
	// Pots 0 and 1 → part 0 and part 1 under parts=2.
	s.Add(fileRec(0, 1, 0, "1.1.1.1", "shared")) // part 0 sees day 0
	s.Add(fileRec(5, 1, 1, "2.2.2.2", "shared")) // part 1 sees day 5
	s.Add(fileRec(1, 1, 0, "1.1.1.1", "only0"))
	s.Add(fileRec(2, 1, 1, "2.2.2.2", "only1"))

	fg := ComputeFederationGain(s, 2, 2)
	if fg.UnionHashes != 3 {
		t.Fatalf("union = %d", fg.UnionHashes)
	}
	// Each part sees 2 of 3 hashes.
	if fg.MeanPartShare < 0.66 || fg.MeanPartShare > 0.67 {
		t.Errorf("mean share = %v, want 2/3", fg.MeanPartShare)
	}
	if fg.MinPartShare != fg.MaxPartShare {
		t.Errorf("shares should be equal: %v vs %v", fg.MinPartShare, fg.MaxPartShare)
	}
	// Lag: part 0 lags 0+0, part 1 lags 5 (shared) + 0 (only1) → mean 5/4.
	if fg.MeanEarliestLagDays != 1.25 {
		t.Errorf("lag = %v, want 1.25", fg.MeanEarliestLagDays)
	}
	// Degenerate cases.
	empty := ComputeFederationGain(store.New(epoch), 2, 2)
	if empty.UnionHashes != 0 || empty.MinPartShare != 0 {
		t.Errorf("empty = %+v", empty)
	}
	one := ComputeFederationGain(s, 2, 0) // clamped to 1 part
	if one.MeanPartShare != 1 {
		t.Errorf("single part share = %v, want 1", one.MeanPartShare)
	}
}

func TestBlockingImpact(t *testing.T) {
	s := store.New(epoch)
	// A 3-IP campaign active days 0..40: one session per day.
	for d := 0; d <= 40; d++ {
		s.Add(fileRec(d, 1, 0, "9.9.9.9", "longcamp"))
	}
	// A big-botnet hash: excluded by maxIPs.
	for i := 0; i < 30; i++ {
		s.Add(fileRec(i, 2, 1, "10.0.0."+string(rune('0'+i%10)), "botnet"))
	}
	hs := ComputeHashStats(s, nil)
	bi := ComputeBlockingImpact(s, hs, 30, 5, 7)
	if bi.Campaigns != 1 {
		t.Fatalf("campaigns = %d, want 1 (only the small long one)", bi.Campaigns)
	}
	if bi.TotalSessions != 41 {
		t.Errorf("total = %d, want 41", bi.TotalSessions)
	}
	// Sessions on days 7..40 are preventable: 34 of 41.
	if bi.PreventableSessions != 34 {
		t.Errorf("preventable = %d, want 34", bi.PreventableSessions)
	}
	if bi.PreventableShare < 0.8 || bi.PreventableShare > 0.85 {
		t.Errorf("share = %v", bi.PreventableShare)
	}
	none := ComputeBlockingImpact(s, nil, 30, 5, 7)
	if none.Campaigns != 0 || none.PreventableShare != 0 {
		t.Errorf("no targets = %+v", none)
	}
}

func TestAbuseReports(t *testing.T) {
	reg := geoRegistry()
	s := store.New(epoch)
	// Two clients from one AS, one intrusion-heavy; one from another.
	as1 := reg.ASes()[0]
	as2 := reg.ASes()[1]
	ip1a := geo.Uint32ToAddr(as1.Base).String()
	ip1b := geo.Uint32ToAddr(as1.Base + 1).String()
	ip2 := geo.Uint32ToAddr(as2.Base).String()

	s.Add(fileRec(0, 1, 0, ip1a, "h1")) // intrusion with hash
	s.Add(fileRec(1, 1, 0, ip1a, "h2"))
	r := fileRec(2, 1, 0, ip1b, "h1")
	r.Files = nil
	r.Commands = nil // NO_CMD intrusion
	s.Add(r)
	scan := fileRec(0, 2, 1, ip2, "x")
	scan.Logins, scan.Commands, scan.Files = nil, nil, nil // NO_CRED
	s.Add(scan)

	reports := ComputeAbuseReports(s, reg, 1)
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	top := reports[0]
	if top.ASN != as1.ASN {
		t.Errorf("top AS = %d, want %d", top.ASN, as1.ASN)
	}
	if top.ClientIPs != 2 || top.Sessions != 3 || top.IntrusionSessions != 3 || top.Hashes != 2 {
		t.Errorf("top = %+v", top)
	}
	// minSessions filters the scan-only AS.
	filtered := ComputeAbuseReports(s, reg, 2)
	if len(filtered) != 1 {
		t.Errorf("filtered = %d, want 1", len(filtered))
	}
}

var cachedReg *geo.Registry

func geoRegistry() *geo.Registry {
	if cachedReg == nil {
		cachedReg = geo.NewRegistry(geo.Config{Seed: 1})
	}
	return cachedReg
}
