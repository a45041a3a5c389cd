package analysis

// State at the paper's scale: one Partials bundle holding a synthetic
// population shaped like the paper's Figures 12 and 13 — how many bytes
// and heap objects a client row costs, and what folding, sealing and
// encoding that much state take. BenchmarkStateAtPaperScale runs it at
// the paper's 2.1M clients and 64k hashes; TestStateBudget runs a tenth
// of it on every go test and holds the per-client cost to the budget
// DESIGN.md declares.

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/wire"
)

const (
	paperPots    = 221
	paperDays    = 486
	paperClients = 2_100_000
	paperHashes  = 64_000
	// snapshotClientRows is query.ClientRows, the client head a seal
	// builds; this package cannot import query.
	snapshotClientRows = 100
)

// splitmix is the splitmix64 step: a stateless stream per client index,
// so the hash phase can name a record a client already sent.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// unit maps 64 random bits to (0, 1].
func unit(x uint64) float64 { return float64(x>>11+1) / (1 << 53) }

// paperClient is one client's shape: 40 % touch one pot, 42 % two to
// ten, 18 % eleven to all 221 (Figure 12); half are active a single
// day, the rest 2 + Exp(20) days capped at the period (Figure 13). Pots
// and days are walked with a stride coprime to the table size, so a
// client's members are distinct and scattered rather than one run.
type paperClient struct {
	ip                      string
	nPots, potAt, potStride int
	nDays, dayAt, dayStride int
	recordsSent             int
}

func paperClientAt(i int) paperClient {
	s := splitmix(uint64(i))
	next := func() uint64 { s = splitmix(s); return s }
	c := paperClient{
		ip:        netip.AddrFrom4([4]byte{byte(11 + i>>24), byte(i >> 16), byte(i >> 8), byte(i)}).String(),
		nPots:     1,
		potAt:     int(next() % paperPots),
		potStride: 1 + int(next()%12), // 221 = 13 × 17
		nDays:     1,
		dayAt:     int(next() % paperDays),
		dayStride: []int{1, 5, 7, 11, 13}[next()%5], // 486 = 2 × 3⁵
	}
	switch u := unit(next()); {
	case u > 0.82:
		c.nPots = 11 + int(next()%(paperPots-10))
	case u > 0.40:
		c.nPots = 2 + int(next()%9)
	}
	if next()&1 == 0 {
		c.nDays = min(paperDays, 2+int(-20*math.Log(unit(next()))))
	}
	c.recordsSent = max(c.nPots, c.nDays)
	return c
}

// record fills r with the client's j-th session and returns its day.
func (c paperClient) record(r *honeypot.SessionRecord, j int) (day int) {
	r.ClientIP = c.ip
	r.HoneypotID = (c.potAt + j%c.nPots*c.potStride) % paperPots
	return (c.dayAt + j%c.nDays*c.dayStride) % paperDays
}

// stateScale is what one run of the probe measured.
type stateScale struct {
	clients, hashes, records int
	bytesPerClient           float64
	objectsPerClient         float64
	bytesPerHash             float64
	foldNsPerRecord          float64
	sealMs                   float64 // the keyed tables of a seal, 1 % of client rows touched
	encodeMs                 float64
	frameBytesPerClient      float64
}

func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.HeapObjects
}

// measureStateScale folds the population into one bundle: first every
// client's sessions (no files, so the heap that appears is the client
// table's), then per hash a few sessions clients already sent, now
// carrying the file (so the client rows only count a session more and
// the heap that appears is the hash table's).
func measureStateScale(clients, hashes int) stateScale {
	out := stateScale{clients: clients, hashes: hashes}
	rec := &honeypot.SessionRecord{
		Protocol: honeypot.SSH,
		Logins:   []honeypot.LoginAttempt{{User: "root", Password: "admin"}},
	}
	population := func(sink func(*honeypot.SessionRecord, int)) (records int, took time.Duration) {
		t0 := time.Now()
		for i := 0; i < clients; i++ {
			c := paperClientAt(i)
			for j := 0; j < c.recordsSent; j++ {
				sink(rec, c.record(rec, j))
			}
			records += c.recordsSent
		}
		return records, time.Since(t0)
	}
	_, generator := population(func(*honeypot.SessionRecord, int) {})

	heap0, objs0 := liveHeap()
	p := NewPartials(paperPots, nil, false)
	records, took := population(p.Add)
	heap1, objs1 := liveHeap()
	out.records = records
	out.foldNsPerRecord = float64(took-generator) / float64(records)
	out.bytesPerClient = float64(heap1-heap0) / float64(clients)
	out.objectsPerClient = float64(objs1-objs0) / float64(clients)

	file := []honeypot.FileRecord{{Path: "/tmp/x", Op: "wget", Size: 1}}
	rec.Files = file
	for h := 0; h < hashes; h++ {
		s := splitmix(^uint64(h))
		file[0].Hash = fmt.Sprintf("%016x%016x%016x%016x", s, splitmix(s), splitmix(s+1), splitmix(s+2))
		for n := 1 + int(-15*math.Log(unit(splitmix(s+3)))); n > 0; n-- {
			s = splitmix(s)
			c := paperClientAt(int(s % uint64(clients)))
			p.Add(rec, c.record(rec, int(s>>32)%c.recordsSent))
		}
	}
	rec.Files = nil
	heap2, _ := liveHeap()
	out.bytesPerHash = float64(heap2-heap1) / float64(hashes)

	// What query.MaterializeSnapshot reads of the two tables that grow
	// with state: the client head and the hash count.
	seal := func() (heads []ClientStat, hashes int) {
		return p.Clients.Head(snapshotClientRows), p.Hashes.Len()
	}
	seal()
	for i := 0; i < clients; i += 100 {
		c := paperClientAt(i)
		p.Add(rec, c.record(rec, 0))
	}
	t0 := time.Now()
	seal()
	out.sealMs = float64(time.Since(t0)) / 1e6

	b := wire.NewBuilder(1 << 20)
	t0 = time.Now()
	p.Encode(b)
	out.encodeMs = float64(time.Since(t0)) / 1e6
	out.frameBytesPerClient = float64(b.Len()) / float64(clients)
	runtime.KeepAlive(p)
	return out
}

// BenchmarkStateAtPaperScale is the probe at the paper's population:
// 2.1M clients, 64k hashes, 221 pots, 486 days. One iteration is the
// whole build; the metrics are per client, per hash and per record.
func BenchmarkStateAtPaperScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := measureStateScale(paperClients, paperHashes)
		b.ReportMetric(float64(s.records), "records")
		b.ReportMetric(s.bytesPerClient, "B/client")
		b.ReportMetric(s.objectsPerClient, "objects/client")
		b.ReportMetric(s.bytesPerHash, "B/hash")
		b.ReportMetric(s.foldNsPerRecord, "fold-ns/record")
		b.ReportMetric(s.sealMs, "seal-ms@1%")
		b.ReportMetric(s.encodeMs, "encode-ms")
		b.ReportMetric(s.frameBytesPerClient, "frame-B/client")
	}
}

// TestStateBudget gates the declared budget on a tenth of the paper's
// population: a client row — map slot, key, row and its two sets — costs
// at most 256 B of live heap in at most 4.5 objects, which puts the
// paper's whole client population under 0.6 GB in one shard; a hash row
// with its client-IP set costs at most 1,400 B.
func TestStateBudget(t *testing.T) {
	s := measureStateScale(paperClients/10, paperHashes/10)
	t.Logf("%d clients, %d records: %.0f B and %.2f objects per client, %.0f B/hash, fold %.0f ns/record, seal %.1f ms at 1%% touched, encode %.0f ms, frame %.0f B/client",
		s.clients, s.records, s.bytesPerClient, s.objectsPerClient, s.bytesPerHash, s.foldNsPerRecord, s.sealMs, s.encodeMs, s.frameBytesPerClient)
	if s.bytesPerClient > 256 || s.objectsPerClient > 4.5 {
		t.Errorf("client table costs %.0f B and %.2f objects per client, budget 256 B and 4.5", s.bytesPerClient, s.objectsPerClient)
	}
	if s.bytesPerHash > 1400 {
		t.Errorf("hash table costs %.0f B per hash, budget 1,400 B", s.bytesPerHash)
	}
}
