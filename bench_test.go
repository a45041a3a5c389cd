package honeyfarm

// The benchmark harness: one Benchmark per table and figure in the
// paper's evaluation (see DESIGN.md §4 for the experiment index). Each
// benchmark regenerates its artifact from a shared calibrated dataset
// and renders the same rows/series the paper reports. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are at the default 1/1000 scale of the paper's 402M
// sessions; the reproduction targets are the shapes (who wins, knees,
// factors), checked in the workload package's calibration tests.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/lint"
	"honeyfarm/internal/report"
	"honeyfarm/internal/workload"
)

var (
	benchOnce sync.Once
	benchData *Dataset
)

// benchDataset builds the shared benchmark dataset: 200k sessions
// (≈1/2000 scale) over the full 486-day period on the full 221-pot farm.
func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	benchOnce.Do(func() {
		d, err := Simulate(SimulateConfig{Seed: 1, TotalSessions: 200_000})
		if err != nil {
			b.Fatal(err)
		}
		// Warm the caches shared across benchmarks so per-artifact
		// timings measure the artifact, not the shared aggregation.
		d.PerHoneypot()
		d.HashStats()
		benchData = d
	})
	return benchData
}

func BenchmarkTable1CategoryShares(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := d.CategoryShares()
		report.Table1(io.Discard, cs)
	}
}

func BenchmarkTable2TopPasswords(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.TopCounted(io.Discard, "Table 2", "password", d.TopPasswords(10))
	}
}

func BenchmarkTable3TopCommands(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.TopCounted(io.Discard, "Table 3", "command", d.TopCommands(20))
	}
}

func benchHashTable(b *testing.B, key analysis.HashSortKey, title string) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.HashTable(io.Discard, title, d.HashTable(key, 20), 20)
	}
}

func BenchmarkTable4HashesBySessions(b *testing.B) {
	benchHashTable(b, analysis.BySessions, "Table 4")
}

func BenchmarkTable5HashesByClients(b *testing.B) {
	benchHashTable(b, analysis.ByClientIPs, "Table 5")
}

func BenchmarkTable6HashesByDays(b *testing.B) {
	benchHashTable(b, analysis.ByDays, "Table 6")
}

func BenchmarkFigure2SessionsPerHoneypot(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per := analysis.ComputePerHoneypot(d.Store, d.NumPots)
		report.RankSeries(io.Discard, "Figure 2", analysis.SessionRank(per), 20)
	}
}

func BenchmarkFigure3TopHoneypotActivity(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.BandSeries(io.Discard, "Figure 3", d.DailySeries(-1, 0.05), 30)
	}
}

func BenchmarkFigure4AllHoneypotActivity(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.BandSeries(io.Discard, "Figure 4", d.DailySeries(-1, 0), 30)
	}
}

func BenchmarkFigure6CategoryOverTime(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.CategoryTimeline(io.Discard, d.CategoryTimeline(), 30)
	}
}

func BenchmarkFigure7DurationECDF(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		durs := d.DurationECDFs()
		for c := analysis.Category(0); c < analysis.NumCategories; c++ {
			report.ECDFSeries(io.Discard, c.String(), durs[c], 10)
		}
	}
}

func BenchmarkFigure8CategoryHoneypotSeries(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := analysis.Category(0); c < analysis.NumCategories; c++ {
			report.BandSeries(io.Discard, c.String(), d.DailySeries(int(c), 0), 60)
		}
	}
}

func BenchmarkFigure9TopCategorySeries(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := analysis.Category(0); c < analysis.NumCategories; c++ {
			report.BandSeries(io.Discard, c.String(), d.DailySeries(int(c), 0.05), 60)
		}
	}
}

func BenchmarkFigure10ClientCountries(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Countries(io.Discard, "Figure 10", d.ClientCountries(nil), 15)
	}
}

func BenchmarkFigure11DailyClients(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DailyUniqueClients()
	}
}

func BenchmarkFigure12HoneypotsPerClient(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clients := d.ClientStats(-1)
		report.ECDFSeries(io.Discard, "Figure 12", analysis.HoneypotsPerClientECDF(clients), 15)
	}
}

func BenchmarkFigure13ClientActiveDays(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clients := d.ClientStats(-1)
		report.ECDFSeries(io.Discard, "Figure 13", analysis.ActiveDaysECDF(clients), 15)
	}
}

func BenchmarkFigure14ClientsPerHoneypot(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per := analysis.ComputePerHoneypot(d.Store, d.NumPots)
		vals := make([]float64, len(per))
		for j, p := range per {
			vals[j] = float64(p.Clients)
		}
		report.RankSeries(io.Discard, "Figure 14", rankDesc(vals), 20)
	}
}

func BenchmarkFigure15CategoryCombos(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Combos(io.Discard, d.CategoryCombos())
	}
}

func BenchmarkFigure16RegionalDiversity(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.RegionalDiversity(io.Discard, "Figure 16", d.RegionalDiversity(nil))
	}
}

func BenchmarkFigure17HashFreshness(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Freshness(io.Discard, d.HashFreshness(), 30)
	}
}

func BenchmarkFigure18HashesPerHoneypot(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per := analysis.ComputePerHoneypot(d.Store, d.NumPots)
		vals := make([]float64, len(per))
		for j, p := range per {
			vals[j] = float64(p.Hashes)
		}
		report.RankSeries(io.Discard, "Figure 18", rankDesc(vals), 20)
	}
}

func BenchmarkFigure19HashesVsSessions(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		per := analysis.ComputePerHoneypot(d.Store, d.NumPots)
		hashVals := make([]float64, len(per))
		sessVals := make([]float64, len(per))
		for j, p := range per {
			hashVals[j] = float64(p.Hashes)
			sessVals[j] = float64(p.Sessions)
		}
		report.RankSeries(io.Discard, "Figure 19 hashes", rankDesc(hashVals), 20)
		report.RankSeries(io.Discard, "Figure 19 sessions overlay", rankDesc(sessVals), 20)
	}
}

func BenchmarkFigure20ClientsPerHash(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.RankSeries(io.Discard, "Figure 20", analysis.HashClientRank(d.HashStats()), 20)
	}
}

func BenchmarkFigure21HashesPerClient(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.RankSeries(io.Discard, "Figure 21", analysis.ClientHashRank(d.Store), 20)
	}
}

func BenchmarkFigure22CampaignLengthECDF(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tag, e := range d.CampaignDurations() {
			report.ECDFSeries(io.Discard, tag, e, 8)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §7) ---

// BenchmarkAblationGenerateScale measures record-level generation
// throughput across scales (the substitution's cost model).
func BenchmarkAblationGenerateScale(b *testing.B) {
	for _, total := range []int{10_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("%dk", total/1000), func(b *testing.B) {
			reg := NewRegistry(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := workload.Generate(workload.Config{
					Seed: int64(i), TotalSessions: total, Registry: reg,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds()*float64(b.N), "sessions/s")
		})
	}
}

// BenchmarkGenerateWorkers measures the sharded pipeline's scaling: one
// 200k-session generation per worker count. The rows are byte-identical
// in output (see TestWorkersByteIdentical), so they differ only in
// wall-clock.
func BenchmarkGenerateWorkers(b *testing.B) {
	reg := NewRegistry(1)
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := workload.Generate(workload.Config{
					Seed: 1, TotalSessions: 200_000, Registry: reg, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(200_000/b.Elapsed().Seconds()*float64(b.N), "sessions/s")
		})
	}
}

// BenchmarkAblationFreshnessWindows compares Figure 17's three window
// sizes, the paper's memory-vs-freshness tradeoff.
func BenchmarkAblationFreshnessWindows(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.HashFreshness()
	}
}

// BenchmarkAblationFullReport renders every artifact end to end.
func BenchmarkAblationFullReport(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteReport(io.Discard, ReportOptions{})
	}
}

// BenchmarkExtensionFirstSeenLeaders measures the Section 8.4
// early-detection analysis.
func BenchmarkExtensionFirstSeenLeaders(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.FirstSeenLeaders(10)
	}
}

// BenchmarkExtensionFederationGain measures the Discussion's federated-
// honeyfarm what-if across partition counts.
func BenchmarkExtensionFederationGain(b *testing.B) {
	d := benchDataset(b)
	for _, parts := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parts-%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.FederationGain(parts)
			}
		})
	}
}

// BenchmarkExtensionBlockingImpact measures the blocking what-if.
func BenchmarkExtensionBlockingImpact(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.BlockingImpact(180, 5, 14)
	}
}

// BenchmarkAblationNoCampaigns isolates the campaign machinery's cost
// and lets Figure 17/22 be compared against a campaign-free background.
func BenchmarkAblationNoCampaigns(b *testing.B) {
	reg := NewRegistry(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(workload.Config{
			Seed: int64(i), TotalSessions: 100_000, Registry: reg, DisableCampaigns: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLintRepo measures the repository's own analyzer suite over
// the whole module — the cost every check.sh run pays: all packages
// type-checked and analyzed from scratch.
func BenchmarkLintRepo(b *testing.B) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs := 0
	for i := 0; i < b.N; i++ {
		res, err := lint.NewLoader(root).Check(lint.CheckOptions{})
		if err != nil {
			b.Fatal(err)
		}
		pkgs += res.Packages
	}
	b.ReportMetric(float64(pkgs)/b.Elapsed().Seconds(), "pkgs/s")
}
