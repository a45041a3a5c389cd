package shard_test

// Goldens over the cmd/shard and cmd/merge metric surfaces.
// BuildCollectorRegistry renders deterministically from the fixture
// dataset (WAL health stubbed, no wire sessions driven). The merge
// surface has live pull counters, so its golden pins the schema —
// names, help, types, label sets — with sample values masked.

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
	"honeyfarm/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite the metrics golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/shard -update): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("exposition changed\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func fixtureEngine(t *testing.T) *query.Engine {
	t.Helper()
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 21, TotalSessions: 80, Days: 6, NumPots: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.New(query.Config{
		Epoch: honeyfarm.DefaultEpoch, NumPots: 4,
		Registry: d.Registry,
	})
	eng.Ingest(d.Store.Records())
	eng.Seal()
	return eng
}

func TestCollectorMetricsGolden(t *testing.T) {
	eng := fixtureEngine(t)
	front, err := shard.NewWireFront(shard.WireConfig{
		Shards: 2, Index: 0, NumPots: 4, Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	health := func() wal.Health {
		return wal.Health{Appends: 16, AppendedRecords: int(eng.Seq()), Fsyncs: 16}
	}
	srv := query.NewServer(query.ServerConfig{Source: eng, WALHealth: health})
	reg := shard.BuildCollectorRegistry(eng, health, front, srv, 4)
	checkGolden(t, "collector_metrics.golden.txt", reg.Render())
}

// sampleValue masks the value field of every sample line, keeping the
// series identity (name + labels) and all comment lines intact.
var sampleValue = regexp.MustCompile(`^((?:[^#{ ]+)(?:\{[^}]*\})?) .*$`)

func maskValues(exposition []byte) []byte {
	lines := strings.Split(string(exposition), "\n")
	for i, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		lines[i] = sampleValue.ReplaceAllString(ln, "$1 V")
	}
	return []byte(strings.Join(lines, "\n"))
}

func TestMergeMetricsSchemaGolden(t *testing.T) {
	eng := fixtureEngine(t)
	shardSrv := httptest.NewServer(shard.NewHandler(eng))
	defer shardSrv.Close()

	coord, err := shard.New(shard.Config{
		Shards:    []string{shardSrv.URL},
		NumPots:   4,
		Countries: true,
		Epoch:     honeyfarm.DefaultEpoch,
		PullEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	waitFor(t, 5e9, func() bool { return coord.Seq() == eng.Seq() }, "merge catch-up")

	api := query.NewServer(query.ServerConfig{Source: coord})
	reg := shard.BuildMergeRegistry(coord, api, 4)
	checkGolden(t, "merge_metrics_schema.golden.txt", maskValues(reg.Render()))

	// The values the schema golden masks still have to be coherent:
	// the installed shard seq is the fixture engine's full sequence.
	out := string(reg.Render())
	if !strings.Contains(out, `honeyfarm_shard_last_seq{shard="0"} `+strconv.FormatUint(eng.Seq(), 10)+"\n") {
		t.Errorf("merge registry missing installed shard seq:\n%s", out)
	}
	if !strings.Contains(out, `honeyfarm_shard_up{shard="0"} 1`+"\n") {
		t.Errorf("merge registry missing shard up gauge")
	}
}
