package main

// One run of one workload: set up (several times, for a median), the
// measured phase, the correctness checks, tear-down, and — in the
// traced run — the isolated layer drives and the span arithmetic.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// sizes are the operation counts. Every pass of a run repeats the same
// work, and the number of passes follows from --seconds alone, never
// from how fast the machine got through them: both sides of a later
// comparison do identical work, and memory and WAL sizes do not depend
// on speed. The per-second pass rates were chosen so that on the
// 2-core box the sizes come from, the measured phase takes about
// --seconds. full is the benchmark; mini is the same code in a second
// or two, for the package's test.
type sizes struct {
	setupRounds int // set-ups timed per run, at least; the median is setup_s
	setupMax    int // and at most, for set-ups of a few milliseconds
	minPasses   int // closed-loop or ingest passes, at least
	recoverMin  int // WAL recover cycles, at least
	recoverRecs int // records to recover in all: small WALs get more cycles

	table1Passes float64 // closed-loop passes per second of --seconds
	telnetPasses float64
	ingestPasses float64

	wirePots   int
	table1Pass time.Duration // plan window at table1Rate: one pass's sessions
	table1Rate float64
	telnetPass int     // sessions per pass
	openRate   float64 // phase B offered load, sessions/s
	openShare  float64 // share of --seconds phase B takes on wire_table1

	farmPots   int
	batch      int // records per append-then-ingest call
	ingestRecs int // records per ingest pass

	fleetPreload int
	fleetRate    int // records per second fed
	getRate      int // queries per second

	probeConns int // handshakes, logins, sessions per isolated drive
	probeShell int
	probeWAL   int // records through the WAL drive
	probeSmall int // engine state at the first timed seal
	probeFull  int // engine state at the second, and behind the rest
}

var fullSizes = sizes{
	setupRounds: 3, setupMax: 25, minPasses: 3, recoverMin: 5, recoverRecs: 2_000_000,
	table1Passes: 0.7, telnetPasses: 1.0, ingestPasses: 0.4,
	wirePots: 8, table1Pass: 3 * time.Second, table1Rate: 1000, telnetPass: 6000,
	openRate: 1000, openShare: 0.25,
	farmPots: 221, batch: 500, ingestRecs: 400_000,
	fleetPreload: 200_000, fleetRate: 5000, getRate: 200,
	probeConns: 300, probeShell: 2000, probeWAL: 40_960, probeSmall: 200_000, probeFull: 600_000,
}

var miniSizes = sizes{
	setupRounds: 2, setupMax: 3, minPasses: 2, recoverMin: 2, recoverRecs: 1000,
	table1Passes: 1, telnetPasses: 1, ingestPasses: 1,
	wirePots: 2, table1Pass: 150 * time.Millisecond, table1Rate: 1000, telnetPass: 150,
	openRate: 200, openShare: 0.5,
	farmPots: 221, batch: 500, ingestRecs: 10_000,
	fleetPreload: 6000, fleetRate: 5000, getRate: 100,
	probeConns: 10, probeShell: 20, probeWAL: 4096, probeSmall: 4000, probeFull: 8000,
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // trace files and scratch WAL directories go here
	sz       sizes
}

// result is what one run reports.
type result struct {
	correct           bool
	attempted, failed int
	e2e, layer        map[string]float64
}

// run is the state one workload run shares with its workload.
type run struct {
	cfg     runConfig
	tr      *tracer
	tmp     string
	e2e     map[string]float64
	layer   map[string]float64
	problem []string // failed correctness checks

	attempted, failed int
	ops               int           // sessions or records the measured phase put through
	busy              time.Duration // wall of the ingest passes or the feed, for *_busy_share
}

func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problem = append(r.problem, fmt.Sprintf(format, args...))
	}
}

// workload is what the three implementations share. setup builds
// everything up to the first measured operation and teardown releases
// it; measure is the timed phase and leaves behind what verify checks.
type workload interface {
	setup(parent spanID) error
	teardown() error
	measure(parent spanID) error
	verify() error
}

var workloadNames = []string{"wire_table1", "wire_telnet_cmd", "record_ingest", "fleet_visibility"}

func newWorkload(r *run) (workload, error) {
	switch r.cfg.workload {
	case "wire_table1":
		return &wireWorkload{r: r}, nil
	case "wire_telnet_cmd":
		return &wireWorkload{r: r, telnetOnly: true}, nil
	case "record_ingest":
		return &ingestWorkload{r: r}, nil
	case "fleet_visibility":
		return &fleetWorkload{r: r}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", r.cfg.workload, workloadNames)
}

func runWorkload(cfg runConfig) (*result, error) {
	r := &run{cfg: cfg, e2e: map[string]float64{}, layer: map[string]float64{}}
	w, err := newWorkload(r)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if r.tmp, err = os.MkdirTemp(cfg.outDir, "tmp-"+cfg.workload+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.tmp)

	// A set-up of a few milliseconds needs more rounds for a steady
	// median than one of a second: go on past the minimum while the
	// rounds so far took under half a second. Each round starts from a
	// collected heap, so it does not pay for the one torn down before.
	var (
		setups []float64
		total  float64
	)
	for i := 0; ; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("%s tear-down: %w", cfg.workload, err)
			}
		}
		runtime.GC()
		id := r.tr.begin("phase.setup", noSpan, int64(i))
		t0 := time.Now()
		err := w.setup(id)
		took := time.Since(t0).Seconds()
		r.tr.end(id)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("%s set-up: %w", cfg.workload, err), w.teardown())
		}
		setups, total = append(setups, took), total+took
		if n := len(setups); n >= cfg.sz.setupMax || (n >= cfg.sz.setupRounds && total >= 0.5) {
			break
		}
	}
	r.e2e["setup_s"] = median(setups)

	// Collect the last set-up's garbage, so allocation counts and GC
	// share are the measured phase's own.
	runtime.GC()
	m0, c0 := readMem(), readCPU()
	phase := r.tr.begin("phase.measured", noSpan, 0)
	err = w.measure(phase)
	r.tr.end(phase)
	m1, c1 := readMem(), readCPU()
	if err == nil {
		err = w.verify()
	}
	if terr := w.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if r.ops > 0 {
		r.layer["proc.allocs_per_op"] = float64(m1.mallocs-m0.mallocs) / float64(r.ops)
		r.layer["proc.alloc_bytes_per_op"] = float64(m1.bytes-m0.bytes) / float64(r.ops)
	}
	if busy := c1.busy - c0.busy; busy > 0 {
		r.layer["proc.gc_cpu_share"] = (c1.gc - c0.gc) / busy
	}
	r.layer["trace.sessions_per_s"] = r.e2e["sessions_per_s"]

	if cfg.trace {
		if err := r.finishTrace(phase); err != nil {
			return nil, err
		}
	}
	if r.e2e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	for _, p := range r.problem {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", cfg.workload, p)
	}
	return &result{
		correct:   len(r.problem) == 0,
		attempted: r.attempted,
		failed:    r.failed,
		e2e:       r.e2e,
		layer:     r.layer,
	}, nil
}

// finishTrace runs the isolated layer drives, turns the spans into
// the reconcile and overhead numbers, and writes the span file.
func (r *run) finishTrace(phase spanID) error {
	if err := r.probes(); err != nil {
		return fmt.Errorf("layer drives: %w", err)
	}
	spans := r.tr.snapshot()
	lo, hi := spans[phase].Start, spans[phase].End
	if hi > lo {
		r.layer["reconcile.covered_share"] = float64(leafCover(spans, lo, hi)) / float64(hi-lo)
		r.layer["trace.overhead_share"] = float64(len(spans)) * float64(spanCost()) / float64(hi-lo)
	}
	r.layer["trace.spans"] = float64(len(spans))
	printLayers(spans, hi-lo)
	return writeTrace(filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload+".jsonl"), spans)
}

// probes are the small isolated drives of one layer's public API each.
// They run after the workload is torn down, so the process is quiet
// and allocation counts are the layer's own.
func (r *run) probes() error {
	sz := r.cfg.sz
	dir := filepath.Join(r.tmp, "probes")
	if err := probeSSH(sz.probeConns, r.layer); err != nil {
		return err
	}
	if err := probeTelnet(sz.probeConns*4, r.layer); err != nil {
		return err
	}
	probeShell(sz.probeShell, r.layer)
	if err := probeSessions(sz.probeConns, r.cfg.seed, r.layer); err != nil {
		return err
	}
	t0 := time.Now()
	recs, reg, err := simulate(nil, noSpan, r.cfg.seed, sz.probeFull, sz.farmPots)
	if err != nil {
		return err
	}
	r.layer["workload.simulate_records_per_s"] = float64(len(recs)) / time.Since(t0).Seconds()
	if err := probeWAL(recs[:sz.probeWAL], filepath.Join(dir, "wal"), r.layer); err != nil {
		return err
	}
	return probeEngine(recs, reg, sz.farmPots, sz.probeSmall, r.layer)
}

// --- shared by the workloads ---

// passStats collects, pass by pass, the numbers whose medians a
// workload reports.
type passStats struct {
	rate, p50, p90, p99 []float64
}

func (p *passStats) add(ops int, wall time.Duration, latMS []float64) {
	p.rate = append(p.rate, float64(ops)/wall.Seconds())
	p.p50 = append(p.p50, quantile(latMS, 0.50))
	p.p90 = append(p.p90, quantile(latMS, 0.90))
	p.p99 = append(p.p99, quantile(latMS, 0.99))
}

func (p *passStats) report(r *run) {
	r.e2e["sessions_per_s"] = median(p.rate)
	r.e2e["op_p50_ms"] = median(p.p50)
	r.e2e["op_p90_ms"] = median(p.p90)
}

// recoverCycles reopens the WAL directories as a restart would and
// reports the median rate over the cycles: sz.recoverMin of them, more
// when the WALs are small, so that sz.recoverRecs records are
// recovered in all. It returns the last cycle's batches, directory
// after directory.
func (r *run) recoverCycles(parent spanID, dirs []string) ([][]*record, int, error) {
	var (
		rates   []float64
		batches [][]*record
		total   int
	)
	for cycles := r.cfg.sz.recoverMin; len(rates) < cycles; {
		// Every cycle starts from a collected heap without the previous
		// cycle's records: a restarting collector opens its WAL on an
		// empty heap, and the collector's luck with the bench's own
		// dataset is not what the cycles are here to measure.
		batches, total = nil, 0
		runtime.GC()
		var took time.Duration
		for _, dir := range dirs {
			b, n, d, err := recoverWAL(r.tr, parent, dir)
			if err != nil {
				return nil, 0, err
			}
			batches, total, took = append(batches, b...), total+n, took+d
		}
		if total == 0 {
			return nil, 0, fmt.Errorf("recovered no records from %v", dirs)
		}
		rates = append(rates, float64(total)/took.Seconds())
		cycles = max(cycles, r.cfg.sz.recoverRecs/total)
	}
	r.e2e["recover_records_per_s"] = median(rates)
	return batches, total, nil
}

// sameBodies reports the first /v1 endpoint on which two renderings
// differ.
func sameBodies(want, got map[string][]byte) error {
	for _, p := range v1Paths {
		if w, g := want[p], got[p]; len(w) == 0 || !bytes.Equal(w, g) {
			return fmt.Errorf("%s: bodies differ (%d and %d bytes)", p, len(w), len(g))
		}
	}
	return nil
}

// waitFor polls cond every millisecond until it holds or limit passes.
func waitFor(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// --- wire_table1 and wire_telnet_cmd ---

// wireWorkload drives a WireFront (WAL and engine behind it) over
// loopback TCP with loadgen: closed-loop passes of one fixed plan, and
// on wire_table1 an open-loop phase after them.
type wireWorkload struct {
	r          *run
	telnetOnly bool

	dir        string
	reg        *registry
	f          *front
	closedPlan *plan
	openPlan   *plan

	completed int
	accepted  uint64
	refused   uint64
	recovered int
	live      map[string][]byte
	batches   [][]*record
}

func (w *wireWorkload) setup(parent spanID) error {
	cfg, sz := w.r.cfg, w.r.cfg.sz
	w.dir = filepath.Join(w.r.tmp, "wire")
	w.reg = newRegistry(cfg.seed)
	f, err := startFront(w.r.tr, parent, w.dir, w.reg, sz.wirePots)
	if err != nil {
		return err
	}
	w.f = f
	if w.telnetOnly {
		w.closedPlan = scriptPlan(cfg.seed, sz.telnetPass, false, f.targets)
		return nil
	}
	if w.closedPlan, err = table1Plan(cfg.seed, sz.table1Rate, sz.table1Pass, f.targets); err != nil {
		return err
	}
	open := time.Duration(cfg.seconds * sz.openShare * float64(time.Second))
	w.openPlan, err = table1Plan(cfg.seed, sz.openRate, open, f.targets)
	return err
}

func (w *wireWorkload) teardown() error {
	var err error
	if w.f != nil {
		err = w.f.close()
		w.f = nil
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *wireWorkload) account(res *planResult) {
	w.r.attempted += res.attempted
	w.r.failed += res.attempted - res.completed
	w.r.ops += res.completed
	w.completed += res.completed
	for kind, n := range res.errors {
		w.r.check(false, "loadgen: %d %s error(s)", n, kind)
	}
}

func (w *wireWorkload) measure(parent spanID) error {
	r, sz := w.r, w.r.cfg.sz
	fmt.Fprintf(os.Stderr, "bench: %s: plan %s, %d sessions per pass\n", r.cfg.workload, planDigest(w.closedPlan), len(w.closedPlan.Arrivals))
	passes := sz.telnetPasses
	if !w.telnetOnly {
		passes = sz.table1Passes
	}
	passes = max(float64(sz.minPasses), math.Round(passes*r.cfg.seconds))
	var (
		openMax  int
		stopPoll = make(chan struct{})
		pollDone sync.WaitGroup
	)
	pollDone.Add(1)
	go func() {
		defer pollDone.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				openMax = max(openMax, w.f.openConns())
			}
		}
	}()

	var ps passStats
	var err error
	for pass := 0; err == nil && pass < int(passes); pass++ {
		pid := r.tr.begin("pass.closed", parent, int64(pass))
		var res *planResult
		if res, err = runPlan(r.tr, pid, w.closedPlan, clients, false); err == nil {
			w.account(res)
			ps.add(res.completed, res.elapsed, res.latMS)
		}
		r.tr.end(pid)
	}
	if err == nil && w.openPlan != nil {
		pid := r.tr.begin("pass.open", parent, 0)
		var res *planResult
		if res, err = runPlan(r.tr, pid, w.openPlan, clients, true); err == nil {
			w.account(res)
			r.layer["loadgen.slip_p50_ms"] = res.slipP50MS
			r.layer["loadgen.slip_p99_ms"] = res.slipP99MS
			r.layer["loadgen.slip_max_ms"] = res.slipMaxMS
			r.layer["loadgen.achieved_over_offered"] = res.achievedOverOffered
			r.layer["loadgen.open_session_p50_ms"] = quantile(res.latMS, 0.50)
			r.layer["loadgen.open_session_p99_ms"] = quantile(res.latMS, 0.99)
		}
		r.tr.end(pid)
	}
	close(stopPoll)
	pollDone.Wait()
	if err != nil {
		return err
	}
	ps.report(r)
	r.layer["loadgen.session_p99_ms"] = median(ps.p99)
	r.layer["shard.wirefront.open_conns_max"] = float64(openMax)

	// A client's close races the server's sink: wait for the front to
	// have taken every session the clients completed.
	waitFor(5*time.Second, func() bool { return w.f.accepted() >= uint64(w.completed) })
	w.accepted, w.refused = w.f.accepted(), w.f.refused()
	r.layer["shard.wirefront.accepted"] = float64(w.accepted)
	r.layer["shard.wirefront.refused"] = float64(w.refused)
	r.layer["query.engine.seals"] = float64(w.f.node.seals())

	f := w.f
	w.f = nil
	if err := f.close(); err != nil {
		return err
	}
	if w.live, err = renderV1(f.node.eng); err != nil {
		return err
	}
	w.batches, w.recovered, err = r.recoverCycles(parent, []string{w.dir})
	return err
}

func (w *wireWorkload) verify() error {
	r := w.r
	r.check(w.accepted == uint64(w.completed), "front accepted %d sessions, clients completed %d", w.accepted, w.completed)
	r.check(w.refused == 0, "front refused %d sessions", w.refused)
	r.check(w.recovered == int(w.accepted), "WAL recovered %d records, front accepted %d", w.recovered, w.accepted)
	replayed, err := renderV1(replayEngine(w.reg, r.cfg.sz.wirePots, w.batches))
	if err != nil {
		return err
	}
	if err := sameBodies(w.live, replayed); err != nil {
		r.check(false, "replayed WAL against live engine: %v", err)
	}
	return nil
}

// --- record_ingest ---

// ingestWorkload has no sockets: simulated records go through WAL
// append, engine ingest (sealing as it goes), sync and seal, pass
// after pass; then the last pass's WAL is recovered, cycle after cycle.
type ingestWorkload struct {
	r    *run
	recs []*record
	reg  *registry

	last      *node // the final pass's node, WAL closed, engine live
	recovered int
	batches   [][]*record
}

func (w *ingestWorkload) setup(parent spanID) error {
	var err error
	w.recs, w.reg, err = simulate(w.r.tr, parent, w.r.cfg.seed, w.r.cfg.sz.ingestRecs, w.r.cfg.sz.farmPots)
	return err
}

func (w *ingestWorkload) teardown() error {
	w.recs, w.reg, w.last, w.batches = nil, nil, nil, nil
	return nil
}

func (w *ingestWorkload) measure(parent spanID) error {
	r, sz := w.r, w.r.cfg.sz
	var (
		ps                    passStats
		appendBusy, sealBusy  time.Duration
		sealingSum            time.Duration // Σ ingest time of the calls that auto-sealed
		sealingCalls          int
		ingestMS, plainIngest []float64
	)
	passes := max(sz.minPasses, int(math.Round(sz.ingestPasses*r.cfg.seconds)))
	for pass := 0; pass < passes; pass++ {
		dir := filepath.Join(r.tmp, fmt.Sprintf("ingest-%d", pass))
		pid := r.tr.begin("pass.ingest", parent, int64(pass))
		t0 := time.Now()
		n, err := openNode(r.tr, pid, dir, w.reg, sz.farmPots)
		if err != nil {
			return err
		}
		callMS := make([]float64, 0, len(w.recs)/sz.batch+1)
		for lo := 0; lo < len(w.recs); lo += sz.batch {
			ft, err := n.feed(r.tr, pid, int64(lo/sz.batch), w.recs[lo:min(lo+sz.batch, len(w.recs))])
			if err != nil {
				return err
			}
			callMS = append(callMS, ms(ft.append+ft.ingest))
			ingestMS = append(ingestMS, ms(ft.ingest))
			appendBusy += ft.append
			if ft.sealed {
				sealingCalls++
				sealingSum += ft.ingest
			} else {
				plainIngest = append(plainIngest, ms(ft.ingest))
			}
		}
		syncD, sealD, err := n.syncSeal(r.tr, pid)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		r.tr.end(pid)
		appendBusy += syncD
		sealBusy += sealD
		r.busy += wall
		ps.add(len(w.recs), wall, callMS)
		r.attempted += len(callMS)
		r.ops += len(w.recs)
		if err := n.close(r.tr, parent); err != nil {
			return err
		}
		if w.last != nil {
			id := r.tr.begin("os.remove_wal", parent, int64(pass))
			err := os.RemoveAll(w.last.dir)
			r.tr.end(id)
			if err != nil {
				return err
			}
		}
		w.last = n
	}
	ps.report(r)
	// An ingest call that sealed costs a plain call plus the seal.
	sealBusy += sealingSum - time.Duration(float64(sealingCalls)*median(plainIngest)*float64(time.Millisecond))
	r.layer["wal.append_busy_share"] = float64(appendBusy) / float64(r.busy)
	r.layer["query.engine.seal_busy_share"] = float64(sealBusy) / float64(r.busy)
	r.layer["query.engine.ingest_call_p50_ms"] = quantile(ingestMS, 0.50)
	r.layer["query.engine.ingest_call_p99_ms"] = quantile(ingestMS, 0.99)
	r.layer["query.engine.seals"] = float64(w.last.seals())

	var err error
	w.batches, w.recovered, err = r.recoverCycles(parent, []string{w.last.dir})
	return err
}

func (w *ingestWorkload) verify() error {
	r := w.r
	r.check(w.recovered == len(w.recs), "WAL recovered %d records, %d appended", w.recovered, len(w.recs))
	live, err := renderV1(w.last.eng)
	if err != nil {
		return err
	}
	replayed, err := renderV1(replayEngine(w.reg, r.cfg.sz.farmPots, w.batches))
	if err != nil {
		return err
	}
	if err := sameBodies(live, replayed); err != nil {
		r.check(false, "replayed WAL against live engine: %v", err)
	}
	return nil
}

// --- fleet_visibility ---

// fleetWorkload feeds two shards open-loop while a client queries the
// merged /v1, and times how long a fed batch takes to become visible
// there.
type fleetWorkload struct {
	r    *run
	recs []*record
	reg  *registry
	dirs []string
	f    *fleet

	merged    map[string][]byte
	recovered int
}

// feedSplit appends-then-ingests one batch, each record on the shard
// that owns its pot.
func (w *fleetWorkload) feedSplit(parent spanID, req int64, batch []*record) (feedTiming, error) {
	var sum feedTiming
	parts := make([][]*record, len(w.f.nodes))
	for _, rec := range batch {
		s := rec.HoneypotID % len(parts)
		parts[s] = append(parts[s], rec)
	}
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		ft, err := w.f.nodes[s].feed(w.r.tr, parent, req, part)
		if err != nil {
			return sum, err
		}
		sum.append += ft.append
		sum.ingest += ft.ingest
		sum.sealed = sum.sealed || ft.sealed
	}
	return sum, nil
}

func (w *fleetWorkload) fed() int {
	sz := w.r.cfg.sz
	return int(w.r.cfg.seconds*float64(sz.fleetRate)) / sz.batch * sz.batch
}

func (w *fleetWorkload) setup(parent spanID) error {
	r, sz := w.r, w.r.cfg.sz
	var err error
	if w.recs, w.reg, err = simulate(r.tr, parent, r.cfg.seed, sz.fleetPreload+w.fed(), sz.farmPots); err != nil {
		return err
	}
	w.dirs = []string{filepath.Join(r.tmp, "shard0"), filepath.Join(r.tmp, "shard1")}
	if w.f, err = startFleet(r.tr, parent, w.dirs, w.reg, sz.farmPots); err != nil {
		return err
	}
	id := r.tr.begin("fleet.preload", parent, 0)
	defer r.tr.end(id)
	for lo := 0; lo < sz.fleetPreload; lo += sz.batch {
		if _, err := w.feedSplit(id, int64(lo/sz.batch), w.recs[lo:min(lo+sz.batch, sz.fleetPreload)]); err != nil {
			return err
		}
	}
	if !waitFor(30*time.Second, func() bool { return w.f.mergedSeq() >= uint64(sz.fleetPreload) }) {
		return fmt.Errorf("preload: merged seq %d after 30s, want %d", w.f.mergedSeq(), sz.fleetPreload)
	}
	return nil
}

func (w *fleetWorkload) teardown() error {
	var err error
	if w.f != nil {
		err = w.f.stop()
		w.f = nil
	}
	for _, d := range w.dirs {
		if rerr := os.RemoveAll(d); err == nil {
			err = rerr
		}
	}
	w.recs = nil
	return err
}

// pendingBatch is a fed batch waiting to show up in the merged view.
type pendingBatch struct {
	due    time.Time
	target uint64 // merged seq that covers it
}

func (w *fleetWorkload) measure(parent spanID) error {
	r, sz := w.r, w.r.cfg.sz
	var (
		mu       sync.Mutex
		pending  []pendingBatch
		fedSeq   = uint64(sz.fleetPreload)
		feedDone bool

		visMS, lateMS, getMS, lagRecs, ingestMS []float64
		feedErr, getErr                         error
		fedWall                                 time.Duration
		getFailed, gets                         int
		appendBusy                              time.Duration

		batches  = w.fed() / sz.batch
		interval = time.Duration(float64(time.Second) * float64(sz.batch) / float64(sz.fleetRate))
		getEvery = time.Second / time.Duration(sz.getRate)
		start    = time.Now()
		end      = start.Add(time.Duration(batches) * interval)
		wg       sync.WaitGroup
	)
	wg.Add(3)
	go func() { // the feeder
		defer wg.Done()
		defer func() {
			fedWall = time.Since(start)
			mu.Lock()
			feedDone = true
			mu.Unlock()
		}()
		for i := 0; i < batches; i++ {
			due := start.Add(time.Duration(i) * interval)
			sleepUntil(due)
			lateMS = append(lateMS, ms(time.Since(due)))
			lo := sz.fleetPreload + i*sz.batch
			id := r.tr.begin("feed.batch", parent, int64(i))
			ft, err := w.feedSplit(id, int64(i), w.recs[lo:lo+sz.batch])
			r.tr.end(id)
			if err != nil {
				feedErr = err
				return
			}
			appendBusy += ft.append
			ingestMS = append(ingestMS, ms(ft.ingest))
			mu.Lock()
			fedSeq += uint64(sz.batch)
			pending = append(pending, pendingBatch{due: due, target: fedSeq})
			mu.Unlock()
		}
	}()
	go func() { // the watcher: when does the merged view cover each batch?
		defer wg.Done()
		giveUp := end.Add(10 * time.Second)
		for {
			seq, now := w.f.mergedSeq(), time.Now()
			mu.Lock()
			for len(pending) > 0 && pending[0].target <= seq {
				visMS = append(visMS, ms(now.Sub(pending[0].due)))
				pending = pending[1:]
			}
			lagRecs = append(lagRecs, float64(fedSeq-min(seq, fedSeq)))
			done := feedDone && len(pending) == 0
			mu.Unlock()
			if done || now.After(giveUp) {
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	go func() { // the query client
		defer wg.Done()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * getEvery)
			if !due.Before(end) {
				return
			}
			sleepUntil(due)
			id := r.tr.begin("query.get", parent, int64(i))
			status, _, err := w.f.get(v1Paths[i%len(v1Paths)])
			r.tr.end(id)
			getMS = append(getMS, ms(time.Since(due)))
			gets++
			if err != nil || status != 200 {
				getFailed++
				if err == nil {
					err = fmt.Errorf("status %d", status)
				}
				getErr = err
			}
		}
	}()
	wg.Wait()
	if feedErr != nil {
		return feedErr
	}
	r.busy = end.Sub(start)
	unseen := batches - len(visMS)
	r.attempted += batches + gets
	r.failed += unseen + getFailed
	r.ops += batches * sz.batch
	r.check(unseen == 0, "%d of %d fed batches never became visible in the merged view", unseen, batches)
	r.check(getFailed == 0, "%d of %d GETs failed (last: %v)", getFailed, gets, getErr)

	// Records fed over the time from the first batch's due instant to
	// the last batch's completion: the offered rate when the feeder kept
	// up (the last interval is not waited out, so a little above it),
	// less when it fell behind.
	r.e2e["sessions_per_s"] = float64(batches*sz.batch) / fedWall.Seconds()
	r.e2e["op_p50_ms"] = quantile(visMS, 0.50)
	r.e2e["op_p90_ms"] = quantile(visMS, 0.90)
	r.layer["query.server.get_p50_ms"] = quantile(getMS, 0.50)
	r.layer["query.server.get_p99_ms"] = quantile(getMS, 0.99)
	r.layer["loadgen.feed_late_p50_ms"] = quantile(lateMS, 0.50)
	r.layer["loadgen.feed_late_p99_ms"] = quantile(lateMS, 0.99)
	r.layer["shard.coordinator.seq_lag_p50_records"] = quantile(lagRecs, 0.50)
	r.layer["query.engine.ingest_call_p50_ms"] = quantile(ingestMS, 0.50)
	r.layer["query.engine.ingest_call_p99_ms"] = quantile(ingestMS, 0.99)
	r.layer["wal.append_busy_share"] = float64(appendBusy) / float64(r.busy)

	// Final state: the merged view as a reader gets it, the fleet's own
	// counters, then stop it and recover both WALs as a restart would.
	w.merged = make(map[string][]byte, len(v1Paths))
	for _, p := range v1Paths {
		status, body, err := w.f.get(p)
		if err != nil || status != 200 {
			return fmt.Errorf("final GET %s: status %d, %v", p, status, err)
		}
		w.merged[p] = body
	}
	c := w.f.counters()
	r.layer["shard.coordinator.pulls"] = float64(c.pulls)
	r.layer["shard.coordinator.pull_failures"] = float64(c.pullFailures)
	r.layer["shard.coordinator.pull_p50_ms"] = c.pullP50MS
	r.layer["shard.coordinator.pull_p99_ms"] = c.pullP99MS
	r.layer["query.server.shed"] = float64(c.shed)
	if served := c.cacheHits + c.renders; served > 0 {
		r.layer["query.server.cache_hit_share"] = float64(c.cacheHits) / float64(served)
	}
	var seals uint64
	for _, n := range w.f.nodes {
		seals += n.seals()
	}
	r.layer["query.engine.seals"] = float64(seals)
	f := w.f
	w.f = nil
	if err := f.stop(); err != nil {
		return err
	}
	var err error
	_, w.recovered, err = r.recoverCycles(parent, w.dirs)
	return err
}

func (w *fleetWorkload) verify() error {
	r := w.r
	r.check(w.recovered == len(w.recs), "shard WALs recovered %d records, %d fed", w.recovered, len(w.recs))
	single, err := renderV1(replayEngine(w.reg, r.cfg.sz.farmPots, [][]*record{w.recs}))
	if err != nil {
		return err
	}
	if err := sameBodies(single, w.merged); err != nil {
		r.check(false, "merged fleet against one engine fed the same records: %v", err)
	}
	return nil
}
