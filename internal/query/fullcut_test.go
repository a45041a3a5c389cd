package query_test

// What ingest waits while a pull is answered in full: CutPartials(b, 0,
// false) encodes the whole accumulator state under the ingest mutex, so
// every record that arrives meanwhile waits for the encode.
// BenchmarkIngestDuringFullCut measures that wait on a client population
// shaped like the paper's Figures 12 and 13 (internal/analysis's state
// probe draws the same shape). By default it holds 20,000 clients, so a
// -benchtime 1x smoke stays quick; HONEYFARM_CUT_CLIENTS=2100000 is the
// paper's population (≈1.5 GB of heap).

import (
	"math"
	"net/netip"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/query"
	"honeyfarm/internal/wire"
)

const (
	fullCutPots = 221
	fullCutDays = 486
	// feedEvery is the feeder's offered gap between one-record ingests.
	feedEvery = 100 * time.Microsecond
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fullCutClient is one client's shape: 40 % touch one pot, 42 % two to
// ten, 18 % eleven to all 221; half are active one day, the rest 2 +
// Exp(20) days capped at the period. Pots and days are walked with a
// stride coprime to the table size, so the members are distinct.
type fullCutClient struct {
	ip                      string
	nPots, potAt, potStride int
	nDays, dayAt, dayStride int
}

func fullCutClientAt(i int) fullCutClient {
	s := splitmix(uint64(i))
	next := func() uint64 { s = splitmix(s); return s }
	c := fullCutClient{
		ip:        netip.AddrFrom4([4]byte{byte(11 + i>>24), byte(i >> 16), byte(i >> 8), byte(i)}).String(),
		nPots:     1,
		potAt:     int(next() % fullCutPots),
		potStride: 1 + int(next()%12), // 221 = 13 × 17
		nDays:     1,
		dayAt:     int(next() % fullCutDays),
		dayStride: []int{1, 5, 7, 11, 13}[next()%5], // 486 = 2 × 3⁵
	}
	switch u := float64(next()>>11+1) / (1 << 53); {
	case u > 0.82:
		c.nPots = 11 + int(next()%(fullCutPots-10))
	case u > 0.40:
		c.nPots = 2 + int(next()%9)
	}
	if next()&1 == 0 {
		c.nDays = min(fullCutDays, 2+int(-20*math.Log(float64(next()>>11+1)/(1<<53))))
	}
	return c
}

// fill makes r the client's j-th session.
func (c fullCutClient) fill(r *honeypot.SessionRecord, j int) {
	day := (c.dayAt + j%c.nDays*c.dayStride) % fullCutDays
	r.ClientIP = c.ip
	r.HoneypotID = (c.potAt + j%c.nPots*c.potStride) % fullCutPots
	r.Start = honeyfarm.DefaultEpoch.Add(time.Duration(day) * 24 * time.Hour)
	r.End = r.Start.Add(time.Second)
}

// fullCutRecord is a session of the paper's most common category, a
// failed login.
func fullCutRecord() *honeypot.SessionRecord {
	return &honeypot.SessionRecord{
		Protocol: honeypot.SSH,
		Logins:   []honeypot.LoginAttempt{{User: "root", Password: "root"}},
	}
}

// fullCutEngine folds every client's sessions, one batch per client, and
// returns the engine and its record count.
func fullCutEngine(clients int) (*query.Engine, int) {
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: fullCutPots})
	pool := make([]*honeypot.SessionRecord, max(fullCutPots, fullCutDays))
	for i := range pool {
		pool[i] = fullCutRecord()
	}
	records := 0
	for i := 0; i < clients; i++ {
		c := fullCutClientAt(i)
		n := max(c.nPots, c.nDays)
		for j := 0; j < n; j++ {
			c.fill(pool[j], j)
		}
		eng.Ingest(pool[:n])
		records += n
	}
	return eng, records
}

// ingestDuringCut answers one pull in full while a feeder offers a
// one-record Ingest every feedEvery. It returns the latency of every
// offer due while the cut ran, measured from when it was due (so the
// wait behind the ingest mutex counts), and the cut's duration.
func ingestDuringCut(eng *query.Engine, w *wire.Builder, feed []*honeypot.SessionRecord) ([]time.Duration, time.Duration) {
	type offer struct {
		due     time.Time
		latency time.Duration
	}
	stop := make(chan struct{})
	done := make(chan []offer)
	go func() {
		var got []offer
		due := time.Now()
		for k := 0; ; k++ {
			if d := time.Until(due); d > 0 {
				select {
				case <-stop:
					done <- got
					return
				default:
				}
				time.Sleep(d)
			}
			eng.Ingest(feed[k%len(feed) : k%len(feed)+1])
			got = append(got, offer{due, time.Since(due)})
			due = due.Add(feedEvery)
		}
	}()
	time.Sleep(20 * feedEvery) // the feeder is under way before the cut
	t0 := time.Now()
	eng.CutPartials(w, 0, false)
	t1 := time.Now()
	close(stop)
	var lat []time.Duration
	for _, o := range <-done {
		if !o.due.Before(t0) && !o.due.After(t1) {
			lat = append(lat, o.latency)
		}
	}
	return lat, t1.Sub(t0)
}

// BenchmarkIngestDuringFullCut reports, over the offers due while a full
// CutPartials ran, the longest and the p99 one-record Ingest, and the
// cut's own duration. One iteration is one cut of the whole state.
func BenchmarkIngestDuringFullCut(b *testing.B) {
	clients := 20_000
	if v := os.Getenv("HONEYFARM_CUT_CLIENTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			b.Fatalf("HONEYFARM_CUT_CLIENTS=%q: want a positive client count", v)
		}
		clients = n
	}
	eng, records := fullCutEngine(clients)
	feed := make([]*honeypot.SessionRecord, 64)
	for i := range feed {
		feed[i] = fullCutRecord()
		fullCutClientAt(i*clients/len(feed)).fill(feed[i], 0)
	}
	w := wire.NewBuilder(1 << 20)
	var lat []time.Duration
	var cut time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		w.Reset()
		l, c := ingestDuringCut(eng, w, feed)
		lat = append(lat, l...)
		cut += c
	}
	b.StopTimer()
	if len(lat) == 0 {
		b.Fatal("no ingest was due while the cut ran")
	}
	slices.Sort(lat)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	b.ReportMetric(ms(lat[len(lat)-1]), "ingest-max-ms")
	b.ReportMetric(ms(lat[(len(lat)-1)*99/100]), "ingest-p99-ms")
	b.ReportMetric(ms(cut)/float64(b.N), "cut-ms")
	b.ReportMetric(float64(w.Len()), "frame-B")
	b.ReportMetric(float64(records), "records")
}
