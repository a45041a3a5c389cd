package honeyfarm

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/wal"
)

// smallDataset is shared by the facade tests.
var smallDataset *Dataset

func testDataset(t testing.TB) *Dataset {
	t.Helper()
	if smallDataset != nil {
		return smallDataset
	}
	d, err := Simulate(SimulateConfig{Seed: 7, TotalSessions: 40_000, Days: 120})
	if err != nil {
		t.Fatal(err)
	}
	smallDataset = d
	return d
}

func TestSimulateBasics(t *testing.T) {
	d := testDataset(t)
	if d.Sessions() < 30_000 {
		t.Fatalf("sessions = %d", d.Sessions())
	}
	if d.Days() == 0 || d.Days() > 120 {
		t.Errorf("days = %d", d.Days())
	}
	if len(d.Deployments) != 221 {
		t.Errorf("deployments = %d", len(d.Deployments))
	}
}

func TestDatasetArtifacts(t *testing.T) {
	d := testDataset(t)
	cs := d.CategoryShares()
	if cs.Total != d.Sessions() {
		t.Errorf("total mismatch: %d vs %d", cs.Total, d.Sessions())
	}
	if len(d.TopPasswords(10)) != 10 {
		t.Error("top passwords short")
	}
	if len(d.TopCommands(20)) == 0 {
		t.Error("no commands")
	}
	if len(d.HashTable(analysis.BySessions, 20)) != 20 {
		t.Error("hash table short")
	}
	if got := d.DailySeries(-1, 0); len(got.Bands) != d.Days() {
		t.Errorf("series bands = %d", len(got.Bands))
	}
	if got := d.DailySeries(int(FailLog), 0.05); len(got.Bands) != d.Days() {
		t.Errorf("top-5%% series bands = %d", len(got.Bands))
	}
	if v := d.HashVisibility(); v.Total == 0 {
		t.Error("no hashes")
	}
	if len(d.CampaignDurations()) < 3 {
		t.Error("too few campaign tags")
	}
	if len(d.ClientCountries(nil)) < 20 {
		t.Error("too few countries")
	}
	if rd := d.RegionalDiversity(nil); len(rd.Clients) != d.Days() {
		t.Error("regional diversity days mismatch")
	}
}

// roundTrip saves d with SaveWAL and loads the log back.
func roundTrip(t *testing.T, d *Dataset, reg *Registry, seed int64) *Dataset {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "dataset")
	if err := d.SaveWAL(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatasetFile(dir, reg, d.NumPots, seed)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := testDataset(t)
	loaded := roundTrip(t, d, d.Registry, 7)
	if loaded.Sessions() != d.Sessions() {
		t.Fatalf("sessions: %d vs %d", loaded.Sessions(), d.Sessions())
	}
	// Same classification results after round trip.
	a := d.CategoryShares()
	b := loaded.CategoryShares()
	for c := Category(0); c < analysis.NumCategories; c++ {
		if a.Overall[c] != b.Overall[c] {
			t.Errorf("%v share changed after reload", c)
		}
	}
}

func TestWriteReport(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	d.WriteReport(&buf, ReportOptions{})
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
		"Figure 2", "Figure 3", "Figure 4", "Figure 6", "Figure 7",
		"Figure 8", "Figure 9", "Figure 10", "Figure 11", "Figure 12",
		"Figure 13", "Figure 14", "Figure 15", "Figure 16", "Figure 17",
		"Figure 18", "Figure 20", "Figure 21", "Figure 22",
		"NO_CRED", "trojan", "hash visibility",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestClassifyFacade(t *testing.T) {
	r := &SessionRecord{}
	if Classify(r) != NoCred {
		t.Error("facade Classify broken")
	}
}

func TestMergeFederation(t *testing.T) {
	a, err := Simulate(SimulateConfig{Seed: 1, TotalSessions: 6000, Days: 20, NumPots: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(SimulateConfig{Seed: 2, TotalSessions: 6000, Days: 20, NumPots: 8})
	if err != nil {
		t.Fatal(err)
	}
	aSessions, bSessions := a.Sessions(), b.Sessions()
	aHashes := len(a.HashStats())

	a.Merge(b)
	if a.Sessions() != aSessions+bSessions {
		t.Fatalf("sessions = %d, want %d", a.Sessions(), aSessions+bSessions)
	}
	if a.NumPots != 16 || len(a.Deployments) != 16 {
		t.Errorf("pots = %d deployments = %d, want 16", a.NumPots, len(a.Deployments))
	}
	// Honeypot IDs from b are offset into 8..15.
	per := a.PerHoneypot()
	if len(per) != 16 {
		t.Fatalf("per = %d", len(per))
	}
	for i := 8; i < 16; i++ {
		if per[i].Sessions == 0 {
			t.Errorf("merged honeypot %d has no sessions", i)
		}
	}
	// Federation widens hash visibility (caches were invalidated).
	if got := len(a.HashStats()); got < aHashes {
		t.Errorf("merged hashes = %d, want ≥ %d", got, aHashes)
	}
	// b's records were copied, not aliased.
	if b.Store.Records()[0].HoneypotID >= 8 {
		t.Error("merge mutated the source dataset")
	}
}

// TestMergeKeepsFaultAccounting: a merged dataset's availability table
// carries each side's fault rows at that side's pot offset. A side
// without a report contributes zero rows, and uptime is measured over
// the longer period.
func TestMergeKeepsFaultAccounting(t *testing.T) {
	simulate := func(seed int64, days int, faulted bool) *Dataset {
		cfg := SimulateConfig{Seed: seed, TotalSessions: 3000, Days: days, NumPots: 8}
		if faulted {
			cfg.Faults = &FaultPlan{Seed: seed, Outages: []FaultOutage{{Pot: 3, FirstDay: 0, LastDay: days - 1}}}
		}
		d, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := simulate(1, 30, true), simulate(2, 30, true)
	aRows, bRows := a.Availability(), b.Availability()
	if bRows[3].DownDays != 30 || bRows[3].DowntimeDrops == 0 {
		t.Fatalf("b's pot 3 = %+v, want 30 down days and downtime drops", bRows[3])
	}
	a.Merge(b)
	rows := a.Availability()
	if len(rows) != 16 {
		t.Fatalf("merged table has %d rows, want 16", len(rows))
	}
	for pot := 0; pot < 8; pot++ {
		want := bRows[pot]
		want.Pot += 8
		if rows[pot] != aRows[pot] || rows[pot+8] != want {
			t.Errorf("pot %d: merged rows %+v, %+v; want a's %+v and b's %+v",
				pot, rows[pot], rows[pot+8], aRows[pot], want)
		}
	}

	// A clean 10-day side: zero rows, and the 30-day period wins.
	c := simulate(3, 10, false)
	c.Merge(simulate(2, 30, true))
	rows = c.Availability()
	if c.Faults == nil || c.Faults.Days != 30 {
		t.Fatalf("clean.Merge(faulted) report = %+v, want one over 30 days", c.Faults)
	}
	for pot := 0; pot < 8; pot++ {
		if r := rows[pot]; r.DownDays != 0 || r.DowntimeDrops != 0 || r.ConnDrops != 0 || r.Availability != 1 {
			t.Errorf("clean side's pot %d = %+v, want a zero row", pot, r)
		}
	}
	if r := rows[11]; r.DownDays != 30 || r.Availability != 0 || r.DowntimeDrops != bRows[3].DowntimeDrops {
		t.Errorf("faulted side's pot 3 (row 11) = %+v, want 30 down days and %d downtime drops", r, bRows[3].DowntimeDrops)
	}
}

// TestCowrieRoundTripReport: a dataset exported as a Cowrie log and
// loaded back renders the identical report. The sensor names carry the
// honeypot IDs, so the per-pot and geography figures survive too.
func TestCowrieRoundTripReport(t *testing.T) {
	for _, n := range []int{2_000, 20_000} {
		d, err := Simulate(SimulateConfig{Seed: 1, TotalSessions: n, NumPots: 221})
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		if err := d.ExportCowrie(&log); err != nil {
			t.Fatal(err)
		}
		back, err := LoadCowrie(&log, nil, 221, 1)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		d.WriteReport(&want, ReportOptions{})
		back.WriteReport(&got, ReportOptions{})
		wl, gl := strings.Split(want.String(), "\n"), strings.Split(got.String(), "\n")
		line := func(ls []string, i int) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<end of report>"
		}
		for i := 0; i < max(len(wl), len(gl)); i++ {
			if line(gl, i) != line(wl, i) {
				t.Errorf("%d sessions: report differs after the round trip, first at line %d:\n got %q\nwant %q",
					n, i+1, line(gl, i), line(wl, i))
				break
			}
		}
	}
}

// TestLoadedPlacementMatchesSimulate: a loaded dataset re-derives the
// exact honeypot placement the generator used, on both sides of the
// 55-country and 65-AS defaults.
func TestLoadedPlacementMatchesSimulate(t *testing.T) {
	for _, pots := range []int{10, 54, 55, 60, 64, 65, 221} {
		d, err := Simulate(SimulateConfig{Seed: 5, TotalSessions: 500, Days: 10, NumPots: pots})
		if err != nil {
			t.Fatal(err)
		}
		loaded := roundTrip(t, d, nil, 5)
		if !slices.Equal(loaded.Deployments, d.Deployments) || len(d.Deployments) != pots {
			t.Errorf("%d pots: loaded placement differs from the generated one (%d vs %d deployments)",
				pots, len(loaded.Deployments), len(d.Deployments))
		}
	}
}

// walOf writes recs with SaveWAL's writer in batches of batch records,
// over segments of segBytes, and returns the directory.
func walOf(t *testing.T, epoch time.Time, recs []*SessionRecord, batch int, segBytes int64) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	if err := writeWAL(iofault.OS, dir, wal.Options{Epoch: epoch, SegmentBytes: segBytes}, recs, batch); err != nil {
		t.Fatal(err)
	}
	return dir
}

// segments lists the WAL segment files in dir, in sequence order.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments of %s: %v, %v", dir, segs, err)
	}
	return segs
}

// TestLoadDatasetFileReadsWAL: the full report over the log SaveWAL
// wrote, and over a log of the same records in small batches over
// several segments, is byte for byte the report over the dataset
// Simulate returned.
func TestLoadDatasetFileReadsWAL(t *testing.T) {
	d := testDataset(t)
	saved := filepath.Join(t.TempDir(), "dataset")
	if err := d.SaveWAL(saved); err != nil {
		t.Fatal(err)
	}
	small := walOf(t, d.Store.Epoch(), d.Store.Records(), 500, 1<<20)
	if n := len(segments(t, small)); n < 2 {
		t.Fatalf("the log has %d segment, want several", n)
	}
	var want bytes.Buffer
	d.WriteReport(&want, ReportOptions{})
	for _, dir := range []string{saved, small} {
		loaded, err := LoadDatasetFile(dir, d.Registry, d.NumPots, 7)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if loaded.Sessions() != d.Sessions() || !loaded.Store.Epoch().Equal(d.Store.Epoch()) {
			t.Fatalf("%s: %d sessions from %v, want %d from %v", dir, loaded.Sessions(), loaded.Store.Epoch(), d.Sessions(), d.Store.Epoch())
		}
		var got bytes.Buffer
		loaded.WriteReport(&got, ReportOptions{})
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: the report over the log differs from the report over the dataset (%d and %d bytes)", dir, got.Len(), want.Len())
		}
	}
}

// failFS fails the calls of one kind (write, sync or rename) numbered
// from from to from+count-1, counting from 1, with err.
type failFS struct {
	iofault.FS
	kind        string
	from, count int64
	err         error
	calls       atomic.Int64
}

func (f *failFS) fail(kind string) error {
	if kind != f.kind {
		return nil
	}
	if n := f.calls.Add(1); n >= f.from && n < f.from+f.count {
		return f.err
	}
	return nil
}

func (f *failFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return failFile{file, f}, nil
}

func (f *failFS) Rename(oldpath, newpath string) error {
	if err := f.fail("rename"); err != nil {
		return err
	}
	return f.FS.Rename(oldpath, newpath)
}

type failFile struct {
	iofault.File
	fs *failFS
}

func (f failFile) Write(p []byte) (int, error) {
	if err := f.fs.fail("write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f failFile) Sync() error {
	if err := f.fs.fail("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestSaveWALFailures: a save that fails part way, or at the rename,
// leaves neither the dataset directory nor the temporary one, and a
// fsync that fails once and lets the log recover behind a gap frame is
// a failed save too. A directory that exists is refused unchanged.
func TestSaveWALFailures(t *testing.T) {
	recs := testDataset(t).Store.Records()[:5000]
	epoch := testDataset(t).Store.Epoch()
	for _, tc := range []struct {
		fsys *failFS
		want string
	}{
		{&failFS{kind: "write", from: 3, count: 1 << 40, err: syscall.ENOSPC}, "append: no space left"},
		{&failFS{kind: "sync", from: 2, count: 1 << 40, err: syscall.EIO}, "group commit fsync"},
		{&failFS{kind: "sync", from: 2, count: 1, err: syscall.EIO}, "degraded 1 time(s)"},
		{&failFS{kind: "rename", from: 1, count: 1, err: syscall.EIO}, "input/output error"},
	} {
		fsys := tc.fsys
		fsys.FS = iofault.OS
		dir := filepath.Join(t.TempDir(), "dataset")
		err := writeWAL(fsys, dir, wal.Options{Epoch: epoch, RetryBackoff: time.Millisecond}, recs, 1000)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s fails from call %d: error %v, want one naming %q", fsys.kind, fsys.from, err, tc.want)
		}
		for _, p := range []string{dir, dir + ".tmp"} {
			if _, serr := os.Stat(p); !os.IsNotExist(serr) {
				t.Errorf("%s fails from call %d (%v): %s is left behind", fsys.kind, fsys.from, err, filepath.Base(p))
			}
		}
	}

	d := testDataset(t)
	for _, existing := range []string{"dataset", "dataset.tmp"} {
		dir := filepath.Join(t.TempDir(), "dataset")
		mine := filepath.Join(filepath.Dir(dir), existing, "mine")
		if err := os.MkdirAll(filepath.Dir(mine), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mine, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := d.SaveWAL(dir); err == nil {
			t.Errorf("SaveWAL wrote over an existing %s", existing)
		}
		if b, err := os.ReadFile(mine); err != nil || string(b) != "keep" {
			t.Errorf("SaveWAL changed %s/mine: %q, %v", existing, b, err)
		}
		if ents, _ := os.ReadDir(filepath.Dir(mine)); len(ents) != 1 {
			t.Errorf("SaveWAL added to %s: %d entries", existing, len(ents))
		}
	}
}

// TestLoadDatasetFileWALDamage: reading a log writes nothing to it. A
// torn tail on the final segment, which wal.Open truncates, is read up
// to and left on disk; the damage wal.Open refuses is refused, with an
// error that names fsck -repair. A stale temporary file, which wal.Open
// sweeps, stays. A directory with no log in it has no epoch, which
// wal.Open refuses too unless it is given one.
func TestLoadDatasetFileWALDamage(t *testing.T) {
	if _, err := LoadDatasetFile(t.TempDir(), nil, 4, 7); err == nil {
		t.Error("an empty directory loaded as a dataset")
	}
	recs := testDataset(t).Store.Records()[:100]
	epoch := testDataset(t).Store.Epoch()
	torn := wal.EncodeBatchFrame(nil, 0, recs[:1])[:30]
	corrupt := append(wal.EncodeRawFrame(nil, 0x7f, []byte("not a kind this binary knows")), wal.EncodeBatchFrame(nil, 0, recs[:1])...)
	for _, tc := range []struct {
		name  string
		final bool   // the damage goes on the final segment, else on the first
		tail  []byte // appended to that segment
		opens bool   // wal.Open accepts the directory
	}{
		{"torn tail", true, torn, true},
		{"torn frame in a sealed segment", false, torn, false},
		{"corrupt frame", true, corrupt, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := walOf(t, epoch, recs, 10, 4096)
			segs := segments(t, dir)
			seg := segs[0]
			if tc.final {
				seg = segs[len(segs)-1]
			}
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			stale := filepath.Join(dir, "x.tmp")
			if err := os.WriteFile(stale, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}

			loaded, err := LoadDatasetFile(dir, nil, 4, 7)
			if tc.opens {
				if err != nil || loaded.Sessions() != len(recs) {
					t.Fatalf("loaded %v, %v; want the %d records before the tail", loaded, err, len(recs))
				}
			} else if err == nil || !strings.Contains(err.Error(), "fsck -repair") {
				t.Fatalf("error %v, want a refusal that names fsck -repair", err)
			}
			if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, before) {
				t.Errorf("the load changed %s: %d bytes before, %d after (%v)", filepath.Base(seg), len(before), len(after), err)
			}
			if _, err := os.Stat(stale); err != nil {
				t.Errorf("the load removed a stale temporary file: %v", err)
			}
			l, _, err := wal.Open(dir, wal.Options{})
			if (err == nil) != tc.opens {
				t.Errorf("wal.Open: %v, want accepted=%v", err, tc.opens)
			}
			if err == nil {
				_ = l.Close()
			}
		})
	}
}

// TestLoadDatasetFileLiveLog: a log that a writer is appending to and
// rotating reads as a dataset at any moment. Every read succeeds and
// holds a batch-aligned prefix of the appended records, no shorter than
// what Append had returned before the read began; once the log is
// closed, a read holds every record.
func TestLoadDatasetFileLiveLog(t *testing.T) {
	d := testDataset(t)
	const batch = 40
	recs := d.Store.Records()[:1200]
	dir := filepath.Join(t.TempDir(), "wal")
	l, _, err := wal.Open(dir, wal.Options{Epoch: d.Store.Epoch(), SegmentBytes: 8 << 10, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	load := func() (int, error) {
		loaded, err := LoadDatasetFile(dir, d.Registry, d.NumPots, 7)
		if err != nil {
			return 0, err
		}
		got := loaded.Store.Records()
		for i, r := range got {
			if i >= len(recs) || r.ID != recs[i].ID {
				return 0, fmt.Errorf("record %d of %d is session %d, not the %d-th appended", i, len(got), r.ID, i)
			}
		}
		return len(got), nil
	}

	var appended atomic.Int64 // records Append has returned
	began := make(chan struct{}, 1)
	done := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		reads, last := 0, 0
		for {
			select {
			case <-done:
				t.Logf("%d reads during the appends", reads)
				readErr <- nil
				return
			default:
			}
			floor := int(appended.Load())
			select {
			case began <- struct{}{}:
			default:
			}
			n, err := load()
			reads++
			switch {
			case err != nil:
				readErr <- fmt.Errorf("read %d: %w", reads, err)
				return
			case n%batch != 0 || n < floor || n < last:
				readErr <- fmt.Errorf("read %d holds %d records: want a multiple of %d, at least %d appended before it began and the %d of the read before", reads, n, batch, floor, last)
				return
			}
			last = n
		}
	}()
	// After each append the writer waits for a read to begin, so that
	// the next append, and the rotation it may make, overlaps that read.
	for i := 0; i < len(recs); i += batch {
		select {
		case <-began: // a read that began before this append
		default:
		}
		if err := l.Append(recs[i : i+batch]); err != nil {
			t.Fatal(err)
		}
		appended.Store(int64(i + batch))
		select {
		case <-began:
		case err := <-readErr:
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(segments(t, dir)); n < 4 {
		t.Fatalf("the log has %d segments, want several rotations", n)
	}
	if n, err := load(); err != nil || n != len(recs) {
		t.Fatalf("read after Close: %d records, %v; want all %d", n, err, len(recs))
	}
}

// TestLoadDatasetFileNamesGaps: a log whose writer ran out of disk and
// recovered holds a gap frame; the dataset read from it holds the
// records the writer kept, and the report's summary names the outage and
// exactly the records the writer dropped.
func TestLoadDatasetFileNamesGaps(t *testing.T) {
	d := testDataset(t)
	const batch = 10
	recs := d.Store.Records()[:200]
	dir := filepath.Join(t.TempDir(), "wal")
	inj, err := iofault.New(iofault.OS, iofault.Plan{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(dir, wal.Options{
		Epoch: d.Store.Epoch(), SyncEvery: 1 << 20, FS: inj,
		RetryAttempts: 2, RetryBackoff: time.Millisecond, ProbeEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	appendBatch := func() error {
		next += batch
		return l.Append(recs[next-batch : next])
	}
	for i := 0; i < 3; i++ {
		if err := appendBatch(); err != nil {
			t.Fatal(err)
		}
	}
	inj.Break(syscall.ENOSPC)
	for i := 0; i < 5; i++ {
		if err := appendBatch(); !errors.Is(err, wal.ErrDegraded) {
			t.Fatalf("append during the outage: %v, want ErrDegraded", err)
		}
	}
	inj.Heal()
	for l.Health().Degraded {
		if next+batch > len(recs) {
			t.Fatal("the log never recovered")
		}
		_ = appendBatch() // a probe slot recovers; the appends before it are dropped
	}
	if err := appendBatch(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	h := l.Health()
	if h.Outages != 1 || h.DroppedRecords == 0 {
		t.Fatalf("writer health %+v, want one outage that dropped records", h)
	}

	loaded, err := LoadDatasetFile(dir, d.Registry, d.NumPots, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Sessions(), next-h.DroppedRecords; got != want {
		t.Errorf("loaded %d sessions, want the %d the writer kept", got, want)
	}
	var out bytes.Buffer
	loaded.WriteReport(&out, ReportOptions{Tables: []string{"summary"}})
	want := fmt.Sprintf("log gaps: 1 outage(s) of the collector's disk dropped %d records", h.DroppedRecords)
	if !strings.Contains(out.String(), want) {
		t.Errorf("summary does not name the writer's %d dropped records:\n%s", h.DroppedRecords, out.String())
	}
}
