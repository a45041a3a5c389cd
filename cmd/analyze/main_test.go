package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"honeyfarm"
)

// TestBadFlagsRefused: a -pots or -stride below one is a usage error
// naming the flag, refused before the dataset is read, not a default
// read in its place.
func TestBadFlagsRefused(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "none")
	for _, args := range [][]string{{"-pots", "0"}, {"-pots", "-1"}, {"-stride", "0"}, {"-stride", "-1"}} {
		var out, errOut bytes.Buffer
		code := run(append(args, "-in", missing), &out, &errOut)
		if msg := errOut.String(); code != 2 || !strings.Contains(msg, args[0]+" "+args[1]) || strings.Contains(msg, "loading") {
			t.Errorf("%v: exit %d, want 2 naming %s before reading:\n%s", args, code, args[0], msg)
		}
		if out.Len() > 0 {
			t.Errorf("%v: a refused run printed %d bytes of report", args, out.Len())
		}
	}
}

// TestPotPastFlagRefused: a dataset holding a record of a pot at or past
// -pots is refused, as a record log and as a Cowrie log, naming such a
// pot; with -pots covering every pot it reads.
func TestPotPastFlagRefused(t *testing.T) {
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{Seed: 3, TotalSessions: 3000, NumPots: 8})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	if err := d.SaveWAL(walDir); err != nil {
		t.Fatal(err)
	}
	var cowrie bytes.Buffer
	if err := d.ExportCowrie(&cowrie); err != nil {
		t.Fatal(err)
	}
	cowriePath := filepath.Join(dir, "cowrie.json")
	if err := os.WriteFile(cowriePath, cowrie.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	potRE := regexp.MustCompile(`pot (\d+)`)
	for _, in := range [][]string{{"-in", walDir}, {"-cowrie", "-in", cowriePath}} {
		var out, errOut bytes.Buffer
		code := run(append(in, "-seed", "3", "-pots", "6", "-tables", "summary"), &out, &errOut)
		m := potRE.FindStringSubmatch(errOut.String())
		if code != 1 || m == nil || out.Len() > 0 {
			t.Fatalf("%v -pots 6: exit %d, %d bytes of report, want 1 naming a pot:\n%s", in, code, out.Len(), errOut.String())
		}
		if pot, _ := strconv.Atoi(m[1]); pot < 6 {
			t.Errorf("%v -pots 6: refused pot %d, which is inside", in, pot)
		}
		out.Reset()
		errOut.Reset()
		if code := run(append(in, "-seed", "3", "-pots", "8", "-tables", "summary"), &out, &errOut); code != 0 || !strings.Contains(out.String(), "8 honeypots") {
			t.Errorf("%v -pots 8: exit %d:\n%s%s", in, code, out.String(), errOut.String())
		}
	}
}
