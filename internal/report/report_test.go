package report

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, []string{"a", "bb"}, [][]string{{"xxx", "y"}, {"z", "wwww"}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a  ") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
}

func TestCSV(t *testing.T) {
	var buf bytes.Buffer
	CSV(&buf, []string{"x", "y"}, [][]string{{"1", "2"}})
	want := "x,y\n1,2\n"
	if buf.String() != want {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestTable1(t *testing.T) {
	var cs analysis.CategoryShares
	cs.Total = 100
	cs.Overall[analysis.NoCred] = 0.277
	cs.SSHTotal = 0.758
	var buf bytes.Buffer
	Table1(&buf, cs)
	s := buf.String()
	if !strings.Contains(s, "27.70%") || !strings.Contains(s, "NO_CRED") {
		t.Errorf("table1 = %q", s)
	}
}

func TestTopCounted(t *testing.T) {
	var buf bytes.Buffer
	TopCounted(&buf, "Table 2", "password", []analysis.Counted{{Value: "admin", Count: 9}})
	if !strings.Contains(buf.String(), "admin") || !strings.Contains(buf.String(), "9") {
		t.Errorf("out = %q", buf.String())
	}
}

func TestHashTable(t *testing.T) {
	hs := []analysis.HashStat{{
		Hash: strings.Repeat("ab", 32), Sessions: 100, ClientIPs: 3, Days: 252,
		Tag: "trojan", Honeypots: 202,
	}}
	var buf bytes.Buffer
	HashTable(&buf, "Table 4", hs, 20)
	s := buf.String()
	if !strings.Contains(s, "trojan") || !strings.Contains(s, "252") || !strings.Contains(s, "…") {
		t.Errorf("out = %q", s)
	}
}

func TestRankSeries(t *testing.T) {
	var buf bytes.Buffer
	RankSeries(&buf, "Figure 2", []float64{100, 50, 10, 5, 2}, 3)
	s := buf.String()
	if !strings.Contains(s, "max/min=50.0") {
		t.Errorf("out = %q", s)
	}
	if !strings.Contains(s, "rank,value") {
		t.Errorf("missing csv header: %q", s)
	}
	buf.Reset()
	RankSeries(&buf, "empty", nil, 3)
	if !strings.Contains(buf.String(), "(empty)") {
		t.Error("empty case not handled")
	}
}

func TestBandSeries(t *testing.T) {
	s := stats.NewSeries([][]float64{{1, 2, 3}, {4, 5, 6}})
	var buf bytes.Buffer
	BandSeries(&buf, "Figure 4", s, 1)
	out := buf.String()
	if !strings.Contains(out, "day,p5,p25,median,p75,p95") {
		t.Errorf("out = %q", out)
	}
	if strings.Count(out, "\n") != 4 { // title + header + 2 rows
		t.Errorf("rows = %q", out)
	}
}

func TestECDFSeries(t *testing.T) {
	e := stats.NewECDF([]float64{1, 2, 3})
	var buf bytes.Buffer
	ECDFSeries(&buf, "Figure 7", e, 3)
	if !strings.Contains(buf.String(), "P(X<=x)") {
		t.Errorf("out = %q", buf.String())
	}
}

func TestCategoryTimeline(t *testing.T) {
	tl := analysis.CategoryTimeline{
		PerDay: [][analysis.NumCategories]int{{2, 1, 0, 1, 0}},
		Total:  []int{4},
	}
	var buf bytes.Buffer
	CategoryTimeline(&buf, tl, 1)
	if !strings.Contains(buf.String(), "0.500") {
		t.Errorf("out = %q", buf.String())
	}
}

func TestFreshness(t *testing.T) {
	hf := analysis.HashFreshness{
		UniqueHashes: []int{10}, FreshAll: []float64{0.3},
		Fresh30: []float64{0.4}, Fresh7: []float64{0.5},
	}
	var buf bytes.Buffer
	Freshness(&buf, hf, 1)
	if !strings.Contains(buf.String(), "0.300") || !strings.Contains(buf.String(), "0.500") {
		t.Errorf("out = %q", buf.String())
	}
}

func TestCountries(t *testing.T) {
	var buf bytes.Buffer
	Countries(&buf, "Figure 10", []analysis.CountryCount{{Country: "CN", Clients: 31}, {Country: "IN", Clients: 9}}, 10)
	if !strings.Contains(buf.String(), "CN") || !strings.Contains(buf.String(), "77.50%") {
		t.Errorf("out = %q", buf.String())
	}
}

func TestRegionalDiversityRender(t *testing.T) {
	rd := analysis.RegionalDiversity{
		Fractions: [][analysis.NumRegionClasses]float64{{0.6, 0.2, 0.1, 0.05, 0.05}},
		Clients:   []int{100},
	}
	var buf bytes.Buffer
	RegionalDiversity(&buf, "Figure 16", rd)
	if !strings.Contains(buf.String(), "out-of-continent") || !strings.Contains(buf.String(), "60.00%") {
		t.Errorf("out = %q", buf.String())
	}
}

func TestCombos(t *testing.T) {
	var buf bytes.Buffer
	Combos(&buf, map[analysis.ComboKey]int{1: 700, 3: 50})
	s := buf.String()
	if !strings.Contains(s, "NO_CRED") || !strings.Contains(s, "700") {
		t.Errorf("out = %q", s)
	}
	if !strings.Contains(s, "NO_CRED+FAIL_LOG") {
		t.Errorf("combo name missing: %q", s)
	}
}

func TestDeploymentMatrix(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	deps, err := geo.Place(geo.PlacementConfig{Seed: 1, NumPots: 221, Registry: reg, Residental: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	DeploymentMatrix(&buf, deps, reg)
	s := buf.String()
	if !strings.Contains(s, "221 honeypots, 55 countries, 65 ASes") {
		t.Errorf("summary line missing: %q", strings.SplitN(s, "\n", 2)[0])
	}
	if !strings.Contains(s, "United States") || !strings.Contains(s, "Singapore") {
		t.Error("country names missing")
	}
}

// errWriter fails every write after n bytes succeed.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink full")
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("sink full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRenderEmptyInputs: every renderer must cope with an empty dataset
// — zero rows, nil slices, zero totals — without panicking or dividing
// by zero, still emitting its header so a report over an empty store is
// readable rather than corrupt.
func TestRenderEmptyInputs(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, []string{"a", "b"}, nil)
	CSV(&buf, []string{"x"}, nil)
	Table1(&buf, analysis.CategoryShares{})
	TopCounted(&buf, "Table 2", "password", nil)
	HashTable(&buf, "Table 4", nil, 20)
	RankSeries(&buf, "Figure 2", nil, 5)
	BandSeries(&buf, "Figure 4", stats.Series{}, 1)
	ECDFSeries(&buf, "Figure 7", stats.NewECDF(nil), 5)
	CategoryTimeline(&buf, analysis.CategoryTimeline{}, 1)
	Freshness(&buf, analysis.HashFreshness{}, 1)
	Countries(&buf, "Figure 10", nil, 15)
	Countries(&buf, "Figure 10", []analysis.CountryCount{{Country: "US", Clients: 0}}, 15)
	RegionalDiversity(&buf, "Figure 16", analysis.RegionalDiversity{})
	DeploymentMatrix(&buf, nil, nil)
	Combos(&buf, nil)
	out := buf.String()
	for _, want := range []string{"Table 2", "Figure 2", "(empty)", "0 honeypots, 0 countries, 0 ASes"} {
		if !strings.Contains(out, want) {
			t.Errorf("empty-input render missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("empty-input render produced NaN/Inf:\n%s", out)
	}
}

// TestRenderToFailingWriter: renderers write best-effort — a sink that
// errors mid-table (full disk, closed pipe) must not panic or loop.
func TestRenderToFailingWriter(t *testing.T) {
	hs := []analysis.HashStat{{Hash: "aa", Sessions: 1, ClientIPs: 1, Days: 1, Tag: "x", Honeypots: 1}}
	for _, budget := range []int{0, 3, 64} {
		w := &errWriter{n: budget}
		Table1(w, analysis.CategoryShares{Total: 10})
		HashTable(w, "Table 4", hs, 20)
		RankSeries(w, "Figure 2", []float64{3, 2, 1}, 3)
		Countries(w, "Figure 10", []analysis.CountryCount{{Country: "US", Clients: 2}}, 5)
	}
}
