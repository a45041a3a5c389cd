// Package report renders the paper's tables and figures from analysis
// results: fixed-width ASCII tables for Tables 1–6 and CSV-style series
// for every figure, so `cmd/analyze` and the benchmark harness print the
// same rows the paper reports.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/stats"
)

// Table writes a fixed-width ASCII table.
func Table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// CSV writes a header and rows in comma-separated form.
func CSV(w io.Writer, headers []string, rows [][]string) {
	fmt.Fprintln(w, strings.Join(headers, ","))
	for _, row := range rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// Table1 renders the session-category × protocol breakdown.
func Table1(w io.Writer, cs analysis.CategoryShares) {
	headers := []string{"Protocol", "NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD+URI"}
	all := []string{"all"}
	ssh := []string{"SSH"}
	tel := []string{"Telnet"}
	for c := analysis.Category(0); c < analysis.NumCategories; c++ {
		all = append(all, pct(cs.Overall[c]))
		ssh = append(ssh, pct(cs.SSHShareOfCategory[c]))
		tel = append(tel, pct(1-cs.SSHShareOfCategory[c]))
	}
	fmt.Fprintf(w, "Table 1: %% of %d sessions per category (SSH total %s)\n", cs.Total, pct(cs.SSHTotal))
	Table(w, headers, [][]string{all, ssh, tel})
}

// TopCounted renders a top-N table of (value, count) pairs, used for
// Table 2 (passwords) and Table 3 (commands).
func TopCounted(w io.Writer, title, valueHeader string, top []analysis.Counted) {
	fmt.Fprintln(w, title)
	rows := make([][]string, len(top))
	for i, c := range top {
		rows[i] = []string{fmt.Sprintf("%d", i+1), c.Value, fmt.Sprintf("%d", c.Count)}
	}
	Table(w, []string{"#", valueHeader, "count"}, rows)
}

// HashTable renders Tables 4/5/6: the top-N hashes under a sort key.
func HashTable(w io.Writer, title string, hs []analysis.HashStat, n int) {
	fmt.Fprintln(w, title)
	if n > len(hs) {
		n = len(hs)
	}
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		h := hs[i]
		rows[i] = []string{
			shortHash(h.Hash),
			fmt.Sprintf("%d", h.Sessions),
			fmt.Sprintf("%d", h.ClientIPs),
			fmt.Sprintf("%d", h.Days),
			h.Tag,
			fmt.Sprintf("%d", h.Honeypots),
		}
	}
	Table(w, []string{"Hash", "#Sessions", "#UniqueIPs", "#Days", "Tag", "#Honeypots"}, rows)
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12] + "…"
	}
	return h
}

// RankSeries renders a descending rank curve (Figures 2, 14, 18–21) as
// sampled CSV rows plus headline statistics.
func RankSeries(w io.Writer, title string, values []float64, samplePoints int) {
	fmt.Fprintln(w, title)
	if len(values) == 0 {
		fmt.Fprintln(w, "(empty)")
		return
	}
	total := 0.0
	for _, v := range values {
		total += v
	}
	fmt.Fprintf(w, "  n=%d max=%.0f min=%.0f max/min=%.1f top10=%s knee=rank %d\n",
		len(values), values[0], values[len(values)-1],
		safeRatio(values[0], values[len(values)-1]),
		pct(stats.TopShare(values, 10)), stats.Knee(values))
	rows := sampleRank(values, samplePoints)
	CSV(w, []string{"rank", "value"}, rows)
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sampleRank(values []float64, n int) [][]string {
	if n <= 0 || n > len(values) {
		n = len(values)
	}
	rows := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(values) - 1) / max(1, n-1)
		rows = append(rows, []string{fmt.Sprintf("%d", idx+1), fmt.Sprintf("%.0f", values[idx])})
	}
	return rows
}

// BandSeries renders a percentile-band time series (Figures 3, 4, 8, 9)
// as CSV with a row per day.
func BandSeries(w io.Writer, title string, s stats.Series, stride int) {
	fmt.Fprintln(w, title)
	if stride < 1 {
		stride = 1
	}
	rows := make([][]string, 0, len(s.Bands)/stride+1)
	for d := 0; d < len(s.Bands); d += stride {
		b := s.Bands[d]
		rows = append(rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%.0f", b.P5), fmt.Sprintf("%.0f", b.P25),
			fmt.Sprintf("%.0f", b.Median),
			fmt.Sprintf("%.0f", b.P75), fmt.Sprintf("%.0f", b.P95),
		})
	}
	CSV(w, []string{"day", "p5", "p25", "median", "p75", "p95"}, rows)
}

// ECDFSeries renders an ECDF (Figures 7, 12, 13, 22) as sampled points.
func ECDFSeries(w io.Writer, title string, e *stats.ECDF, points int) {
	fmt.Fprintln(w, title)
	rows := [][]string{}
	for _, p := range e.Points(points) {
		rows = append(rows, []string{fmt.Sprintf("%.2f", p.X), fmt.Sprintf("%.4f", p.Y)})
	}
	CSV(w, []string{"x", "P(X<=x)"}, rows)
}

// CategoryTimeline renders Figure 6: stacked category fractions per day
// plus the daily total.
func CategoryTimeline(w io.Writer, tl analysis.CategoryTimeline, stride int) {
	fmt.Fprintln(w, "Figure 6: category share over time (+ total sessions)")
	if stride < 1 {
		stride = 1
	}
	headers := []string{"day"}
	for c := analysis.Category(0); c < analysis.NumCategories; c++ {
		headers = append(headers, c.String())
	}
	headers = append(headers, "total")
	rows := [][]string{}
	for d := 0; d < len(tl.Total); d += stride {
		row := []string{fmt.Sprintf("%d", d)}
		total := tl.Total[d]
		for c := analysis.Category(0); c < analysis.NumCategories; c++ {
			frac := 0.0
			if total > 0 {
				frac = float64(tl.PerDay[d][c]) / float64(total)
			}
			row = append(row, fmt.Sprintf("%.3f", frac))
		}
		row = append(row, fmt.Sprintf("%d", total))
		rows = append(rows, row)
	}
	CSV(w, headers, rows)
}

// Freshness renders Figure 17.
func Freshness(w io.Writer, hf analysis.HashFreshness, stride int) {
	fmt.Fprintln(w, "Figure 17: unique hashes per day and fresh fraction (all / 30d / 7d)")
	if stride < 1 {
		stride = 1
	}
	rows := [][]string{}
	for d := 0; d < len(hf.UniqueHashes); d += stride {
		rows = append(rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", hf.UniqueHashes[d]),
			fmt.Sprintf("%.3f", hf.FreshAll[d]),
			fmt.Sprintf("%.3f", hf.Fresh30[d]),
			fmt.Sprintf("%.3f", hf.Fresh7[d]),
		})
	}
	CSV(w, []string{"day", "unique", "fresh_all", "fresh_30d", "fresh_7d"}, rows)
}

// Countries renders Figure 10/23: client IPs per country.
func Countries(w io.Writer, title string, cc []analysis.CountryCount, n int) {
	fmt.Fprintln(w, title)
	if n > len(cc) {
		n = len(cc)
	}
	total := 0
	for _, c := range cc {
		total += c.Clients
	}
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		share := 0.0
		if total > 0 {
			share = float64(cc[i].Clients) / float64(total)
		}
		rows[i] = []string{cc[i].Country, fmt.Sprintf("%d", cc[i].Clients), pct(share)}
	}
	Table(w, []string{"Country", "Clients", "Share"}, rows)
}

// RegionalDiversity renders Figure 16's period-mean class fractions.
func RegionalDiversity(w io.Writer, title string, rd analysis.RegionalDiversity) {
	fmt.Fprintln(w, title)
	mean := rd.MeanFractions()
	rows := make([][]string, analysis.NumRegionClasses)
	for c := analysis.RegionClass(0); c < analysis.NumRegionClasses; c++ {
		rows[c] = []string{c.String(), pct(mean[c])}
	}
	Table(w, []string{"Class", "Mean daily share"}, rows)
}

// DeploymentMatrix renders Figure 1: honeypots per country, with AS and
// network-type breadth — the deployment the ethics section allows the
// paper to describe only in aggregate.
func DeploymentMatrix(w io.Writer, deployments []geo.Deployment, reg *geo.Registry) {
	perCountry := map[string]int{}
	ases := map[uint32]bool{}
	for _, d := range deployments {
		perCountry[d.Country]++
		ases[d.ASN] = true
	}
	type kv struct {
		c string
		n int
	}
	list := make([]kv, 0, len(perCountry))
	for c, n := range perCountry {
		list = append(list, kv{c, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].c < list[j].c
	})
	fmt.Fprintf(w, "%d honeypots, %d countries, %d ASes\n", len(deployments), len(perCountry), len(ases))
	rows := make([][]string, 0, len(list))
	for _, e := range list {
		name := e.c
		if reg != nil {
			if c, ok := reg.CountryByCode(e.c); ok {
				name = c.Name
			}
		}
		rows = append(rows, []string{e.c, name, fmt.Sprintf("%d", e.n)})
	}
	Table(w, []string{"CC", "Country", "Honeypots"}, rows)
}

// Combos renders Figure 15's all-time category-combination counts.
func Combos(w io.Writer, counts map[analysis.ComboKey]int) {
	fmt.Fprintln(w, "Figure 15: client IPs per category combination (period total)")
	rows := [][]string{}
	for k := analysis.ComboKey(1); k < 8; k++ {
		if n, ok := counts[k]; ok {
			rows = append(rows, []string{k.String(), fmt.Sprintf("%d", n)})
		}
	}
	Table(w, []string{"Combination", "Clients"}, rows)
}
