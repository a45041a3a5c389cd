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
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/farm"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/lint"
	"honeyfarm/internal/loadgen"
	"honeyfarm/internal/netsim"
	"honeyfarm/internal/query"
	"honeyfarm/internal/replay"
	"honeyfarm/internal/report"
	"honeyfarm/internal/wal"
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
		b.Run(sizeName(total), func(b *testing.B) {
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
// wall-clock; scripts/bench.sh records them into BENCH_<n>.json
// baselines alongside the machine's core count.
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

// BenchmarkWALAppendRecover measures the durability tax, split into the
// stages that compose it: "encode" is the pure v2 batch codec (no I/O),
// "append" is the end-to-end write path with pipelined group commit
// (the fsync of batch N overlaps the encode of batch N+1), "fsync" is
// the same stream with a blocking Sync after every batch (the
// un-pipelined worst case — the gap between the two rows is what the
// commit pipeline buys), and "recover" is a full scan + replay.
// scripts/bench.sh records all rows into BENCH_<n>.json, and
// scripts/check.sh gates the "append" row against the latest baseline.
func BenchmarkWALAppendRecover(b *testing.B) {
	recs := benchDataset(b).Store.Records()
	if len(recs) > 65536 {
		recs = recs[:65536]
	}
	const batch = 4096
	writeAll := func(dir string, syncEach bool) {
		b.Helper()
		log, _, err := wal.Open(dir, wal.Options{Epoch: DefaultEpoch})
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(recs); lo += batch {
			hi := lo + batch
			if hi > len(recs) {
				hi = len(recs)
			}
			if err := log.AppendTagged(uint64(lo/batch), recs[lo:hi]); err != nil {
				b.Fatal(err)
			}
			if syncEach {
				if err := log.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(recs); lo += batch {
				hi := lo + batch
				if hi > len(recs) {
					hi = len(recs)
				}
				buf = wal.EncodeBatchFrame(buf[:0], uint64(lo/batch), recs[lo:hi])
			}
		}
		b.ReportMetric(float64(len(recs))/b.Elapsed().Seconds()*float64(b.N), "records/s")
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			writeAll(dir, false)
		}
		b.ReportMetric(float64(len(recs))/b.Elapsed().Seconds()*float64(b.N), "records/s")
	})
	b.Run("fsync", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			writeAll(dir, true)
		}
		b.ReportMetric(float64(len(recs))/b.Elapsed().Seconds()*float64(b.N), "records/s")
	})
	b.Run("recover", func(b *testing.B) {
		dir := b.TempDir()
		writeAll(dir, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			log, rec, err := wal.Open(dir, wal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if got := rec.Replay().Len(); got != len(recs) {
				b.Fatalf("recovered %d records, want %d", got, len(recs))
			}
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(recs))/b.Elapsed().Seconds()*float64(b.N), "records/s")
	})
}

func sizeName(n int) string {
	switch {
	case n >= 1_000_000:
		return "1M"
	case n >= 200_000:
		return "200k"
	case n >= 50_000:
		return "50k"
	}
	return "10k"
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

// BenchmarkAblationWireVsRecord contrasts the record-level generator's
// throughput with full wire-level replay (real SSH handshakes against
// in-process honeypots) — the cost model that justifies the record-level
// path for 400k-session datasets.
func BenchmarkAblationWireVsRecord(b *testing.B) {
	reg := NewRegistry(1)
	res, err := workload.Generate(workload.Config{
		Seed: 5, TotalSessions: 2000, Days: 10, NumPots: 8, Registry: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	recs := res.Store.Records()

	b.Run("record-level", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workload.Generate(workload.Config{
				Seed: int64(i), TotalSessions: 2000, Days: 10, NumPots: 8, Registry: reg,
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(2000/b.Elapsed().Seconds()*float64(b.N), "sessions/s")
	})

	b.Run("wire-level", func(b *testing.B) {
		f, err := farm.New(farm.Config{
			Seed: 5, NumPots: 8, NumASes: 8,
			Countries: geo.HoneyfarmCountries[:8], Registry: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Start(); err != nil {
			b.Fatal(err)
		}
		defer f.Stop()
		r := &replay.Replayer{Farm: f, Concurrency: 16}
		const sample = 20 // replay every 20th record per iteration
		b.ResetTimer()
		b.ReportAllocs()
		replayed := 0
		for i := 0; i < b.N; i++ {
			stats, err := r.ReplaySample(recs, sample)
			if err != nil {
				b.Fatal(err)
			}
			replayed += stats.Replayed
		}
		b.ReportMetric(float64(replayed)/b.Elapsed().Seconds(), "sessions/s")
	})
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

// BenchmarkQueryIngest measures the live aggregation engine's ingest
// rate, the sustained records/s internal/query folds into its partial
// aggregates: "sealonce" seals once at the end, as the WAL follower
// does after a drain cycle; "autoseal" seals every 2,000 records over
// 500-record batches, as cmd/shard runs it.
func BenchmarkQueryIngest(b *testing.B) {
	d := benchDataset(b)
	recs := d.Store.Records()
	for _, c := range []struct {
		name         string
		every, batch int
	}{{"sealonce", 0, 1024}, {"autoseal", 2000, 500}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := query.New(query.Config{
					Epoch:         DefaultEpoch,
					NumPots:       d.NumPots,
					Registry:      d.Registry,
					Tagger:        analysis.Tagger(defaultTagger()),
					SnapshotEvery: c.every,
				})
				for j := 0; j < len(recs); j += c.batch {
					eng.Ingest(recs[j:min(j+c.batch, len(recs))])
				}
				eng.Seal()
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkSnapshotServe measures the serving layer's request latency
// over a sealed snapshot: "uncached" pays the first render of a
// (sequence, key) pair on a fresh server, "cached" hits the rendered
// body, and "revalidated" is the 304 If-None-Match path.
func BenchmarkSnapshotServe(b *testing.B) {
	d := benchDataset(b)
	eng := query.New(query.Config{
		Epoch:    DefaultEpoch,
		NumPots:  d.NumPots,
		Registry: d.Registry,
		Tagger:   analysis.Tagger(defaultTagger()),
	})
	eng.Ingest(d.Store.Records())
	eng.Seal()
	get := func(b *testing.B, h http.Handler, etag string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/pots", nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := query.NewServer(query.ServerConfig{Source: eng}).Handler()
			if rr := get(b, h, ""); rr.Code != http.StatusOK {
				b.Fatalf("status %d", rr.Code)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		h := query.NewServer(query.ServerConfig{Source: eng}).Handler()
		get(b, h, "") // warm the render cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rr := get(b, h, ""); rr.Code != http.StatusOK {
				b.Fatalf("status %d", rr.Code)
			}
		}
	})
	b.Run("revalidated", func(b *testing.B) {
		h := query.NewServer(query.ServerConfig{Source: eng}).Handler()
		etag := get(b, h, "").Header().Get("ETag")
		if etag == "" {
			b.Fatal("no ETag")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rr := get(b, h, etag); rr.Code != http.StatusNotModified {
				b.Fatalf("status %d", rr.Code)
			}
		}
	})
}

// BenchmarkLintRepo measures the repository's own analyzer suite over
// the whole module — the cost every check.sh run pays. The cold case
// type-checks and analyzes all packages from scratch; the warm case is
// served from the content-hash result cache and bounds the incremental
// cost of an unchanged tree.
func BenchmarkLintRepo(b *testing.B) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		pkgs := 0
		for i := 0; i < b.N; i++ {
			res, err := lint.NewLoader(root).Check(lint.CheckOptions{})
			if err != nil {
				b.Fatal(err)
			}
			pkgs += res.Packages
		}
		b.ReportMetric(float64(pkgs)/b.Elapsed().Seconds(), "pkgs/s")
	})
	b.Run("warm", func(b *testing.B) {
		cache := b.TempDir()
		if _, err := lint.NewLoader(root).Check(lint.CheckOptions{CacheDir: cache}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		pkgs := 0
		for i := 0; i < b.N; i++ {
			res, err := lint.NewLoader(root).Check(lint.CheckOptions{CacheDir: cache})
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheMisses != 0 {
				b.Fatalf("warm run missed %d package(s); the cache key is unstable", res.CacheMisses)
			}
			pkgs += res.Packages
		}
		b.ReportMetric(float64(pkgs)/b.Elapsed().Seconds(), "pkgs/s")
	})
}

// BenchmarkLoadgenWirePath measures the open-loop harness end to end:
// cmd/loadgen's driver replaying a seeded session mix (real SSH/Telnet
// handshakes through internal/sshwire and internal/telnet) against a
// supervised netsim farm — the same path `loadgen -self-pots` drives.
// Sleep is a no-op so the schedule collapses to back-to-back arrivals:
// the number is the wire path's sustainable session rate at the
// driver's concurrency bound, not the offered rate.
func BenchmarkLoadgenWirePath(b *testing.B) {
	const numPots = 8
	f, err := farm.New(farm.Config{
		Seed: 3, NumPots: numPots, NumASes: numPots,
		Countries: geo.HoneyfarmCountries[:numPots], Registry: NewRegistry(3),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Start(); err != nil {
		b.Fatal(err)
	}
	defer f.Stop()

	targets := make([]loadgen.Target, numPots)
	for i := 0; i < numPots; i++ {
		ssh, tel := f.SSHAddr(i), f.TelnetAddr(i)
		targets[i] = loadgen.Target{
			Pot:        i,
			SSHAddr:    net.JoinHostPort(ssh.IP, strconv.Itoa(ssh.Port)),
			TelnetAddr: net.JoinHostPort(tel.IP, strconv.Itoa(tel.Port)),
		}
	}
	var srcSeq atomic.Uint64
	dial := func(t loadgen.Target, ssh bool) (net.Conn, error) {
		addr := t.SSHAddr
		if !ssh {
			addr = t.TelnetAddr
		}
		host, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, err
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			return nil, err
		}
		src := fmt.Sprintf("198.51.100.%d", srcSeq.Add(1)%254+1)
		return f.Fabric().Dial(src, netsim.Addr{IP: host, Port: port})
	}

	plan, err := loadgen.BuildPlan(loadgen.PlanConfig{
		Seed: 3, Rate: 200, Duration: time.Second, Targets: targets,
	})
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	b.ReportAllocs()
	completed := 0
	for i := 0; i < b.N; i++ {
		res, err := loadgen.Run(loadgen.Config{
			Plan:        plan,
			Dial:        dial,
			Concurrency: 32,
			Now:         time.Now,
			Sleep:       func(time.Duration) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Errors) > 0 {
			b.Fatalf("wire path errors: %v", res.Errors)
		}
		completed += res.Completed
	}
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "sessions/s")
}
