package query_test

// Golden and determinism tests over the cmd/serve metric surface:
// BuildServeRegistry is exactly what the binary mounts at /metrics, so
// the golden here pins the exposition names, help strings, and the
// values produced by the deterministic fixture dataset.

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"honeyfarm"
	"honeyfarm/internal/query"
	"honeyfarm/internal/wal"
)

// metricsEngine builds the deterministic fixture engine the goldens
// render from (same dataset as the endpoint goldens).
func metricsEngine(t *testing.T) *query.Engine {
	t.Helper()
	const numPots = 4
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{
		Seed: 21, TotalSessions: 80, Days: 6, NumPots: numPots,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := query.New(query.Config{
		Epoch: honeyfarm.DefaultEpoch, NumPots: numPots,
		Registry: d.Registry,
	})
	eng.Ingest(d.Store.Records())
	eng.Seal()
	return eng
}

func TestServeMetricsGolden(t *testing.T) {
	eng := metricsEngine(t)
	srv := query.NewServer(query.ServerConfig{Source: eng})
	reg := query.BuildServeRegistry(eng, nil, srv, 4)
	got := reg.Render()

	golden := filepath.Join("testdata", "metrics.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/query -update): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("/metrics exposition changed\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestServeMetricsDeterministic proves the exposition is a pure
// function of the observed events: two registries over two identically
// fed engines render byte-identically, repeatedly.
func TestServeMetricsDeterministic(t *testing.T) {
	r1 := query.BuildServeRegistry(metricsEngine(t), nil, query.NewServer(query.ServerConfig{}), 4)
	r2 := query.BuildServeRegistry(metricsEngine(t), nil, query.NewServer(query.ServerConfig{}), 4)
	a, b := r1.Render(), r2.Render()
	if string(a) != string(b) {
		t.Fatal("identical event streams rendered differently")
	}
	if string(r1.Render()) != string(a) {
		t.Fatal("re-render changed the output")
	}
}

// TestServeMetricsEndpoint mounts the registry the way cmd/serve does
// and checks the wire behavior plus the WAL-health rows a collector
// adds.
func TestServeMetricsEndpoint(t *testing.T) {
	eng := metricsEngine(t)
	srv := query.NewServer(query.ServerConfig{Source: eng})
	reg := query.BuildServeRegistry(eng, nil, srv, 4)
	query.RegisterWALHealthMetrics(reg, func() wal.Health {
		return wal.Health{Appends: 3, AppendedRecords: int(eng.Seq()), Fsyncs: 5}
	})
	ms := httptest.NewServer(reg.Handler())
	defer ms.Close()

	resp, err := ms.Client().Get(ms.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	seq := strconv.FormatUint(eng.Seq(), 10)
	for _, want := range []string{
		"honeyfarm_ingested_records_total " + seq + "\n",
		"honeyfarm_snapshot_seq " + seq + "\n",
		"honeyfarm_seal_lag_records 0\n",
		"honeyfarm_wal_append_records_total " + seq + "\n",
		"honeyfarm_wal_fsyncs_total 5\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("missing %q in exposition", want)
		}
	}
}
