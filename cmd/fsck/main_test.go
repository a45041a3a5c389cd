package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/wal"
)

var epoch = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

func records(tag uint64) []*honeypot.SessionRecord {
	return []*honeypot.SessionRecord{{ID: tag, ClientIP: "10.0.0.1", Start: epoch, End: epoch.Add(time.Minute)}}
}

func batchFrame(tag uint64) []byte { return wal.EncodeBatchFrame(nil, tag, records(tag)) }

// walDir writes a two-batch log the way a collector does, then appends
// tail — the damage, if any — to its only segment.
func walDir(t *testing.T, tail ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	for tag := uint64(1); tag <= 2; tag++ {
		if err := l.AppendTagged(tag, records(tag)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal-00000001.seg"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Join(tail, nil)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// fsck runs the command and returns its exit status and stdout.
func fsck(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	if errOut.Len() > 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return code, out.String()
}

// opens reports whether the collector would start on dir, and with how
// many records.
func opens(t *testing.T, dir string) (int, error) {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, err
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return rec.Records(), nil
}

func TestCheckWAL(t *testing.T) {
	// A frame of a kind this binary does not know, CRC-valid, with an
	// intact batch behind it: corruption, which Open refuses.
	unknown := wal.EncodeRawFrame(nil, 0x7f, []byte("not a kind this binary knows"))
	cases := []struct {
		name  string
		tail  [][]byte
		state string // the damage column, "" when healthy
		opens bool   // wal.Open accepts the directory as it is
	}{
		{name: "healthy", opens: true},
		{name: "torn-tail", tail: [][]byte{batchFrame(3)[:30]}, state: "TORN (30 bytes)", opens: true},
		{name: "corrupt", tail: [][]byte{unknown, batchFrame(3)}, state: "CORRUPT (", opens: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// On a copy: an Open that accepts a torn tail truncates it.
			if _, err := opens(t, walDir(t, tc.tail...)); (err == nil) != tc.opens {
				t.Errorf("wal.Open before fsck: %v, want accepted=%v", err, tc.opens)
			}
			dir := walDir(t, tc.tail...)

			var out bytes.Buffer
			res := checkWAL(&out, dir, false)
			if tc.state == "" {
				if !res.healthy || res.status != "ok" || res.records != 2 {
					t.Fatalf("healthy log: %+v\n%s", res, out.String())
				}
				if code, _ := fsck(t, dir); code != 0 {
					t.Errorf("exit %d on a healthy log", code)
				}
				return
			}
			if res.healthy || !strings.HasPrefix(res.status, tc.state) || res.records != 2 {
				t.Errorf("without -repair: %+v, want unhealthy %q with 2 records", res, tc.state)
			}
			if !strings.Contains(out.String(), tc.state) {
				t.Errorf("segment table does not show %q:\n%s", tc.state, out.String())
			}
			if code, _ := fsck(t, dir); code != 1 {
				t.Errorf("exit %d without -repair, want 1", code)
			}

			out.Reset()
			res = checkWAL(&out, dir, true)
			if !res.healthy || res.status != "repaired" || res.records != 2 {
				t.Errorf("with -repair: %+v\n%s", res, out.String())
			}
			if n, err := opens(t, dir); err != nil || n != 2 {
				t.Errorf("wal.Open after -repair: %d records, %v", n, err)
			}
			if code, out := fsck(t, dir); code != 0 || strings.Contains(out, "TORN") || strings.Contains(out, "CORRUPT") {
				t.Errorf("exit %d after -repair:\n%s", code, out)
			}
		})
	}
}

// TestSummaryTable: more than one path prints the fleet table, and one
// damaged path is enough for exit 1.
func TestSummaryTable(t *testing.T) {
	good, bad := walDir(t), walDir(t, batchFrame(3)[:30])
	code, out := fsck(t, good, bad)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	for _, want := range []string{"summary: 2 path(s)", "ok", "TORN (30 bytes)", "1 of 2 unhealthy"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if code, _ := fsck(t); code != 2 {
		t.Errorf("exit %d with no path, want 2", code)
	}
}
