package store

import (
	"sync"
	"testing"
	"time"

	"honeyfarm/internal/honeypot"
)

var epoch = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

func rec(day int, pot int, ip string) *honeypot.SessionRecord {
	start := epoch.Add(time.Duration(day) * 24 * time.Hour).Add(3 * time.Hour)
	return &honeypot.SessionRecord{
		HoneypotID: pot,
		ClientIP:   ip,
		Start:      start,
		End:        start.Add(30 * time.Second),
		Protocol:   honeypot.SSH,
	}
}

func TestAddAndQuery(t *testing.T) {
	s := New(epoch)
	s.Add(rec(0, 1, "1.1.1.1"))
	s.AddBatch([]*honeypot.SessionRecord{rec(1, 2, "2.2.2.2"), rec(5, 1, "1.1.1.1")})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.NumDays() != 6 {
		t.Errorf("NumDays = %d, want 6", s.NumDays())
	}
	onPot1 := 0
	for _, r := range s.Records() {
		if r.HoneypotID == 1 {
			onPot1++
		}
	}
	if onPot1 != 2 {
		t.Errorf("pot 1 holds %d records, want 2", onPot1)
	}
}

func TestDayBuckets(t *testing.T) {
	s := New(epoch)
	if d := s.Day(epoch.Add(36 * time.Hour)); d != 1 {
		t.Errorf("Day(+36h) = %d, want 1", d)
	}
	if d := s.Day(epoch); d != 0 {
		t.Errorf("Day(epoch) = %d, want 0", d)
	}
	if d := s.Day(epoch.Add(-time.Hour)); d >= 0 {
		t.Errorf("Day(before epoch) = %d, want negative", d)
	}
}

// TestNonUTCEpoch pins the epoch-normalization fix: a non-UTC epoch must
// bucket days from that zone's midnight, not the nearest UTC midnight.
func TestNonUTCEpoch(t *testing.T) {
	tokyo := time.FixedZone("UTC+9", 9*3600)
	// 10:30 local on 2021-12-01 in UTC+9. That zone's midnight is
	// 2021-11-30T15:00:00Z; Truncate(24h) would have landed on
	// 2021-12-01T00:00:00Z — nine hours late.
	e := time.Date(2021, 12, 1, 10, 30, 0, 0, tokyo)
	s := New(e)
	wantEpoch := time.Date(2021, 11, 30, 15, 0, 0, 0, time.UTC)
	if !s.Epoch().Equal(wantEpoch) {
		t.Fatalf("Epoch = %v, want %v", s.Epoch(), wantEpoch)
	}
	// One minute after local midnight is day 0; one minute before local
	// midnight of the next day is still day 0; local midnight +24h is day 1.
	if d := s.Day(time.Date(2021, 12, 1, 0, 1, 0, 0, tokyo)); d != 0 {
		t.Errorf("Day(00:01 local) = %d, want 0", d)
	}
	if d := s.Day(time.Date(2021, 12, 1, 23, 59, 0, 0, tokyo)); d != 0 {
		t.Errorf("Day(23:59 local) = %d, want 0", d)
	}
	if d := s.Day(time.Date(2021, 12, 2, 0, 1, 0, 0, tokyo)); d != 1 {
		t.Errorf("Day(next 00:01 local) = %d, want 1", d)
	}
	// UTC epochs are unaffected by the fix.
	if got := New(epoch.Add(5 * time.Hour)).Epoch(); !got.Equal(epoch) {
		t.Errorf("UTC epoch normalization changed: %v, want %v", got, epoch)
	}
}

// TestNumDaysIncremental checks the lazy day-index cache tracks appends.
func TestNumDaysIncremental(t *testing.T) {
	s := New(epoch)
	if s.NumDays() != 0 {
		t.Fatalf("empty NumDays = %d, want 0", s.NumDays())
	}
	s.Add(rec(4, 1, "1.1.1.1"))
	if s.NumDays() != 5 {
		t.Fatalf("NumDays = %d, want 5", s.NumDays())
	}
	// Appends after a NumDays call must still be folded in.
	s.AddBatch([]*honeypot.SessionRecord{rec(2, 1, "1.1.1.1"), rec(9, 2, "2.2.2.2")})
	if s.NumDays() != 10 {
		t.Fatalf("NumDays after append = %d, want 10", s.NumDays())
	}
	// Idempotent on repeat.
	if s.NumDays() != 10 {
		t.Fatalf("NumDays repeat = %d, want 10", s.NumDays())
	}
}

// TestConcurrentAddBatchAndRecords hammers writers against readers so
// `go test -race` exercises the AddBatch/Records/NumDays lock protocol.
func TestConcurrentAddBatchAndRecords(t *testing.T) {
	s := New(epoch)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.AddBatch([]*honeypot.SessionRecord{rec(j%10, n, "1.2.3.4"), rec(j%7, n, "4.3.2.1")})
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				snap := s.Records()
				for _, r := range snap {
					_ = r.HoneypotID
				}
				_ = s.NumDays()
				_ = s.Len()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 4*50*2 {
		t.Errorf("Len = %d, want %d", s.Len(), 4*50*2)
	}
	if s.NumDays() != 10 {
		t.Errorf("NumDays = %d, want 10", s.NumDays())
	}
}

func TestConcurrentAdd(t *testing.T) {
	s := New(epoch)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Add(rec(j%10, n, "1.2.3.4"))
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
}

func TestRecordsSnapshotIsStable(t *testing.T) {
	s := New(epoch)
	s.Add(rec(0, 1, "1.1.1.1"))
	snap := s.Records()
	s.Add(rec(1, 2, "2.2.2.2"))
	if len(snap) != 1 {
		t.Errorf("snapshot grew: %d", len(snap))
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(epoch)
	r := rec(0, 1, "1.1.1.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(r)
	}
}
