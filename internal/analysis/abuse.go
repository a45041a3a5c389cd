package analysis

import (
	"sort"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/store"
)

// AbuseReport aggregates one AS's hostile clients — the data needed for
// the notification campaign the paper's conclusion announces ("we plan
// to coordinate with the honeyfarm operator with the aim to jointly
// notify networks participating in connections to the honeyfarm").
type AbuseReport struct {
	ASN       uint32
	Country   string
	Type      geo.NetworkType
	ClientIPs int
	Sessions  int
	// IntrusionSessions are the NO_CMD/CMD/CMD+URI subset.
	IntrusionSessions int
	// Hashes is the number of distinct malware hashes dropped from the AS.
	Hashes int
}

// ComputeAbuseReports builds per-AS reports, sorted by intrusion
// sessions descending. minSessions filters out incidental ASes.
func ComputeAbuseReports(s *store.Store, reg *geo.Registry, minSessions int) []AbuseReport {
	type acc struct {
		ips        map[string]struct{}
		sessions   int
		intrusions int
		hashes     map[string]struct{}
		country    string
		typ        geo.NetworkType
	}
	byAS := make(map[uint32]*acc)
	for _, r := range s.Records() {
		loc, ok := locate(reg, r.ClientIP)
		if !ok {
			continue
		}
		a := byAS[loc.ASN]
		if a == nil {
			a = &acc{
				ips: make(map[string]struct{}), hashes: make(map[string]struct{}),
				country: loc.Country, typ: loc.Type,
			}
			byAS[loc.ASN] = a
		}
		a.ips[r.ClientIP] = struct{}{}
		a.sessions++
		if BehaviorOf(Classify(r)) == Intrusion {
			a.intrusions++
		}
		for _, f := range r.Files {
			a.hashes[f.Hash] = struct{}{}
		}
	}
	out := make([]AbuseReport, 0, len(byAS))
	for asn, a := range byAS {
		if a.sessions < minSessions {
			continue
		}
		out = append(out, AbuseReport{
			ASN: asn, Country: a.country, Type: a.typ,
			ClientIPs: len(a.ips), Sessions: a.sessions,
			IntrusionSessions: a.intrusions, Hashes: len(a.hashes),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IntrusionSessions != out[j].IntrusionSessions {
			return out[i].IntrusionSessions > out[j].IntrusionSessions
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}
