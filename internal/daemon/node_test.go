package daemon

// The shutdown contract of the three nodes, in process: what a shard
// acknowledged is what it recovers, whichever way it stopped, and every
// Close leaves no goroutine behind.

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"honeyfarm"
	"honeyfarm/internal/analysis"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/loadgen"
	"honeyfarm/internal/query"
	"honeyfarm/internal/telnet"
	"honeyfarm/internal/wal"
)

const fixturePots = 4

var fixture struct {
	once sync.Once
	recs []*honeypot.SessionRecord
	err  error
}

// records is a small generated dataset, built once per test binary.
func records(t *testing.T) []*honeypot.SessionRecord {
	t.Helper()
	fixture.once.Do(func() {
		d, err := honeyfarm.Simulate(honeyfarm.SimulateConfig{Seed: 3, TotalSessions: 200, Days: 10, NumPots: fixturePots, Workers: 2})
		if err == nil {
			fixture.recs = d.Store.Records()
		}
		fixture.err = err
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.recs
}

// shardConfig feeds every pot from one shard, a small batch per pace.
func shardConfig(dir string, pace time.Duration) ShardConfig {
	return ShardConfig{Addr: "127.0.0.1:0", WALDir: dir, Shards: 1, Pots: fixturePots, Batch: 40, SnapshotEvery: 300, Pace: pace}
}

func openShard(t *testing.T, cfg ShardConfig, part []*honeypot.SessionRecord) *Node {
	t.Helper()
	n, err := OpenShard(cfg, part, honeyfarm.NewRegistry(1))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// closeNode closes n within d and requires a clean close with nothing
// left running that was not running when proc started.
func closeNode(t *testing.T, proc *Process, n *Node, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := n.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := proc.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

var v1Tables = []string{"/v1/summary", "/v1/pots", "/v1/clients"}

// sameV1 requires n to serve, at every table, what a fresh engine over
// recs serves once sealed.
func sameV1(t *testing.T, n *Node, recs []*honeypot.SessionRecord) {
	t.Helper()
	eng := query.New(query.Config{Epoch: honeyfarm.DefaultEpoch, NumPots: fixturePots, Registry: honeyfarm.NewRegistry(1)})
	eng.Ingest(recs)
	eng.Seal()
	want := query.NewServer(query.ServerConfig{Source: eng}).Handler()
	for _, path := range v1Tables {
		rec := httptest.NewRecorder()
		want.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		code, body := get(t, "http://"+n.Addr().String()+path)
		if code != http.StatusOK || body != rec.Body.String() {
			t.Errorf("%s over %d records: node served %d\n%s\nfresh engine served\n%s", path, len(recs), code, body, rec.Body)
		}
	}
}

// TestNodeRecoversAcknowledged: a shard closed mid-feed and reopened on
// its directory recovers exactly what it had acknowledged; one fed to
// the end recovers everything, and both serve what a fresh engine over
// the same records serves.
func TestNodeRecoversAcknowledged(t *testing.T) {
	recs := records(t)
	proc := Start("test")
	dir := t.TempDir()

	n := openShard(t, shardConfig(dir, time.Millisecond), recs)
	waitFor(t, "a third of the feed", func() bool { return n.Engine.Seq() >= uint64(len(recs)/3) })
	closeNode(t, proc, n, 5*time.Second)
	acked := n.Engine.Seq()
	if acked >= uint64(len(recs)) {
		t.Fatalf("the feed finished (%d records) before Close stopped it", acked)
	}

	// An hour's pace: nothing is fed while the tables are compared.
	n = openShard(t, shardConfig(dir, time.Hour), recs)
	if got := n.Engine.Seq(); got != acked {
		t.Fatalf("recovered %d records, acknowledged %d", got, acked)
	}
	sameV1(t, n, recs[:acked])
	closeNode(t, proc, n, 5*time.Second)

	n = openShard(t, shardConfig(dir, 0), recs)
	waitFor(t, "the feed to finish", func() bool { return n.Engine.Seq() == uint64(len(recs)) })
	closeNode(t, proc, n, 5*time.Second)
	n = openShard(t, shardConfig(dir, time.Hour), recs)
	sameV1(t, n, recs)
	closeNode(t, proc, n, 5*time.Second)
}

// TestNodeWireRecoversAccepted: sessions driven over real sockets into a
// -wire shard are recovered, after Close, exactly as many as the front
// accepted.
func TestNodeWireRecoversAccepted(t *testing.T) {
	proc := Start("test")
	dir := t.TempDir()
	cfg := shardConfig(dir, 0)
	cfg.Wire, cfg.Shards, cfg.WireAddrFile = true, 2, filepath.Join(t.TempDir(), "pots")

	n := openShard(t, cfg, nil)
	pots := n.Front.Pots()
	if table, err := os.ReadFile(cfg.WireAddrFile); err != nil || strings.Count(string(table), "\n") != len(pots) {
		t.Fatalf("-wire-addr-file: %q, %v; want %d lines", table, err, len(pots))
	}
	var scripts []loadgen.Script
	for _, ssh := range []bool{true, false} {
		login := loadgen.Script{SSH: ssh, User: "root", Password: "pw4711"}
		cmd := login
		cmd.Category, cmd.Commands = analysis.Cmd, []string{"uname -a", "cat /proc/cpuinfo"}
		login.Category = analysis.NoCmd
		scripts = append(scripts, loadgen.Script{Category: analysis.NoCred, SSH: ssh},
			loadgen.Script{Category: analysis.FailLog, SSH: ssh, FailedAttempts: 2}, login, cmd)
	}
	for i, s := range scripts {
		addr := pots[i%len(pots)].TelnetAddr
		if s.SSH {
			addr = pots[i%len(pots)].SSHAddr
		}
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		if err := loadgen.Execute(nc, s); err != nil {
			t.Errorf("%v over ssh=%v: %v", s.Category, s.SSH, err)
		}
		nc.Close()
	}
	closeNode(t, proc, n, 5*time.Second)
	accepted := n.Front.Accepted()
	if accepted != uint64(len(scripts)) || n.Front.Refused() != 0 {
		t.Fatalf("front accepted %d and refused %d of %d sessions", accepted, n.Front.Refused(), len(scripts))
	}

	n = openShard(t, cfg, nil)
	if got := n.Engine.Seq(); got != accepted {
		t.Fatalf("recovered %d records, the front accepted %d", got, accepted)
	}
	closeNode(t, proc, n, 5*time.Second)
}

// TestNodeWireCloseRecordsInFlight: a logged-in Telnet session still
// open when a -wire shard closes is cut, recorded and persisted before
// the WAL closes; the reopened shard recovers it and serves what a fresh
// engine over that one record serves. The WAL read as a dataset (what
// analyze -in <wal-dir> reads) holds what wal.Open recovers, in order.
func TestNodeWireCloseRecordsInFlight(t *testing.T) {
	proc := Start("test")
	cfg := shardConfig(t.TempDir(), 0)
	cfg.Wire = true

	n := openShard(t, cfg, nil)
	nc, err := net.Dial("tcp", n.Front.Pots()[0].TelnetAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if ok, err := telnet.ClientLogin(telnet.NewConn(nc, false), "root", "1234"); err != nil || !ok {
		t.Fatalf("login ok=%v err=%v", ok, err)
	}
	closeNode(t, proc, n, 5*time.Second)
	accepted := n.Front.Accepted()

	d, err := honeyfarm.LoadDatasetFile(cfg.WALDir, honeyfarm.NewRegistry(1), fixturePots, 1)
	if err != nil {
		t.Fatal(err)
	}
	wlog, recovery, err := wal.Open(cfg.WALDir, wal.Options{Epoch: honeyfarm.DefaultEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []*honeypot.SessionRecord
	for _, b := range recovery.Batches {
		recs = append(recs, b.Records...)
	}
	if len(recs) != 1 || accepted != 1 || recs[0].Protocol != honeypot.Telnet || !recs[0].LoggedIn() {
		t.Fatalf("the front accepted %d sessions and the WAL holds %d records (%+v); want the one logged-in telnet session", accepted, len(recs), recs)
	}
	if loaded := d.Store.Records(); !reflect.DeepEqual(loaded, recs) || !d.Store.Epoch().Equal(recovery.Epoch) {
		t.Fatalf("the WAL read as a dataset holds %+v from %v; wal.Open recovered %+v from %v", loaded, d.Store.Epoch(), recs, recovery.Epoch)
	}

	n = openShard(t, cfg, nil)
	if got := n.Engine.Seq(); got != accepted {
		t.Fatalf("recovered %d records, the front accepted %d", got, accepted)
	}
	sameV1(t, n, recs)
	closeNode(t, proc, n, 5*time.Second)
}

// copyDir copies every file of src into a new directory, one file at a
// time, while whoever writes src goes on writing.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestNodeCopyMidFeed: a copy of the WAL taken while the feeder runs is
// what a SIGKILL at that moment leaves. Reopened, it holds everything
// acknowledged before the copy began, and the node serves what one
// batch over the recovered records gives a fresh engine.
func TestNodeCopyMidFeed(t *testing.T) {
	recs := records(t)
	proc := Start("test")
	cfg := shardConfig(t.TempDir(), time.Millisecond)
	cfg.Batch = 20 // many small frames: the copy can cut one

	n := openShard(t, cfg, recs)
	waitFor(t, "a quarter of the feed", func() bool { return n.Engine.Seq() >= uint64(len(recs)/4) })
	acked := n.Engine.Seq()
	killed := copyDir(t, cfg.WALDir)
	closeNode(t, proc, n, 5*time.Second)

	cfg.WALDir, cfg.Pace = killed, time.Hour
	n = openShard(t, cfg, recs)
	recovered := n.Engine.Seq()
	if recovered < acked || recovered > uint64(len(recs)) {
		t.Fatalf("recovered %d records from the copy; %d were acknowledged before it began, %d fed in all", recovered, acked, len(recs))
	}
	sameV1(t, n, recs[:recovered])
	closeNode(t, proc, n, 5*time.Second)
}

// inHandler reports whether some goroutine is running fn.
func inHandler(fn string) bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(fn))
}

// TestNodeParkedPullDoesNotHoldClose: a coordinator's pull parked at
// the shard for news is let go as the drain begins, so Close returns
// well inside its context and cleanly, and the pull is answered.
func TestNodeParkedPullDoesNotHoldClose(t *testing.T) {
	proc := Start("test")
	n := openShard(t, shardConfig(t.TempDir(), time.Hour), records(t))
	res := make(chan int, 1)
	go func() {
		resp, err := client.Get("http://" + n.Addr().String() + "/shard/v1/partials?since=0&wait=10s")
		if err != nil {
			t.Error(err)
			res <- 0
			return
		}
		resp.Body.Close()
		res <- resp.StatusCode
	}()
	waitFor(t, "the pull to park", func() bool { return inHandler("honeyfarm/internal/shard.NewHandler") })
	begin := time.Now()
	closeNode(t, proc, n, 5*time.Second)
	if took := time.Since(begin); took > 3*time.Second {
		t.Fatalf("Close took %v with a pull parked for 10s", took)
	}
	if code := <-res; code != http.StatusServiceUnavailable {
		t.Fatalf("the parked pull was answered %d, want 503 (abandoned)", code)
	}
}

// partition is what shard index of shards owns of recs.
func partition(recs []*honeypot.SessionRecord, shards, index int) []*honeypot.SessionRecord {
	var part []*honeypot.SessionRecord
	for _, r := range recs {
		if r.HoneypotID%shards == index {
			part = append(part, r)
		}
	}
	return part
}

// TestNodeRefusesAnotherPartition: a WAL that is not the partition's is
// refused and closed — one holding more records than the partition
// handed in, one holding another index's pots (fed or under -wire), and
// one holding the right pots but not the partition's records — and the
// same directory then opens with the right partition.
func TestNodeRefusesAnotherPartition(t *testing.T) {
	recs := records(t)
	proc := Start("test")
	cfg := shardConfig(t.TempDir(), 0)
	n := openShard(t, cfg, recs)
	waitFor(t, "the feed to finish", func() bool { return n.Engine.Seq() == uint64(len(recs)) })
	closeNode(t, proc, n, 5*time.Second)

	// Index 1 of 2, fed a third of its partition: fewer records than
	// index 0's partition holds.
	odd := shardConfig(t.TempDir(), 0)
	odd.Shards, odd.Index = 2, 1
	oddPart := partition(recs, 2, 1)
	fed := len(oddPart) / 3
	n = openShard(t, odd, oddPart[:fed])
	waitFor(t, "the odd feed to finish", func() bool { return n.Engine.Seq() == uint64(fed) })
	closeNode(t, proc, n, 5*time.Second)

	asEven, asEvenWire, asAll := odd, odd, odd
	asEven.Index, asEvenWire.Index, asAll.Shards, asAll.Index = 0, 0, 1, 0
	asEvenWire.Wire = true
	for _, in := range []struct {
		name string
		cfg  ShardConfig
		part []*honeypot.SessionRecord
	}{
		{"more records than the partition", cfg, recs[:len(recs)/2]},
		{"index 1's WAL as index 0", asEven, partition(recs, 2, 0)},
		{"index 1's WAL as index 0 under -wire", asEvenWire, nil},
		{"index 1's WAL as the only shard", asAll, recs},
	} {
		n, err := OpenShard(in.cfg, in.part, honeyfarm.NewRegistry(1))
		if err == nil {
			closeNode(t, proc, n, 5*time.Second)
		}
		if err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Errorf("%s: OpenShard = %v, want the mismatch", in.name, err)
		}
		if err := proc.CheckLeaks(); err != nil {
			t.Fatalf("after the refused open of %s: %v", in.name, err)
		}
	}
	cfg.Pace, odd.Pace = time.Hour, time.Hour
	n = openShard(t, cfg, recs)
	if got := n.Engine.Seq(); got != uint64(len(recs)) {
		t.Fatalf("recovered %d of %d records after the refusal", got, len(recs))
	}
	closeNode(t, proc, n, 5*time.Second)
	n = openShard(t, odd, oddPart)
	if got := n.Engine.Seq(); got != uint64(fed) {
		t.Fatalf("recovered %d of the %d records index 1 was fed, after the refusals", got, fed)
	}
	closeNode(t, proc, n, 5*time.Second)
}

// TestNodeRejectsBadShardConfig: a batch that cannot advance the feeder,
// a partition that does not exist or a farm without pots is refused
// before anything opens, by a shard with or without -wire.
func TestNodeRejectsBadShardConfig(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	for _, bad := range []func(*ShardConfig){
		func(c *ShardConfig) { c.Batch = 0 },
		func(c *ShardConfig) { c.Batch = -1 },
		func(c *ShardConfig) { c.Index = c.Shards },
		func(c *ShardConfig) { c.WALDir = "" },
		func(c *ShardConfig) { c.Pots = 0 },
		func(c *ShardConfig) { c.Pots = -1 },
		func(c *ShardConfig) { c.Pots, c.Wire = 0, true },
		func(c *ShardConfig) { c.Pots, c.Wire = -1, true },
	} {
		cfg := shardConfig(dir, 0)
		bad(&cfg)
		if cfg.Check() == nil {
			t.Errorf("%+v passed Check", cfg)
		}
		if _, err := OpenShard(cfg, records(t), honeyfarm.NewRegistry(1)); err == nil {
			t.Errorf("%+v opened", cfg)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a refused config created its WAL directory: %v", err)
	}
}

// TestNodeUnboundCloses: a node that cannot bind its address closes
// what it opened before it returns the error — the shard's feeder and
// WAL, the coordinator's pullers — and a shard's
// directory opens again at once.
func TestNodeUnboundCloses(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	proc := Start("test")
	cfg := shardConfig(t.TempDir(), 0)
	cfg.Addr = taken.Addr().String()
	if _, err := OpenShard(cfg, records(t), honeyfarm.NewRegistry(1)); err == nil {
		t.Fatal("OpenShard on a taken address returned no error")
	}
	if _, err := OpenCoordinator(CoordinatorConfig{Addr: cfg.Addr, Shards: []string{"http://" + cfg.Addr}, Pots: fixturePots}); err == nil {
		t.Fatal("OpenCoordinator on a taken address returned no error")
	}
	if err := proc.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	closeNode(t, proc, openShard(t, cfg, records(t)), 5*time.Second)
}

// TestNodeFleet: a coordinator pulling a shard reaches the shard's
// sequence, and each node's Close takes the goroutine count back to
// what it was before it opened.
func TestNodeFleet(t *testing.T) {
	recs := records(t)
	procS := Start("shard")
	cfg := shardConfig(t.TempDir(), 0)
	s := openShard(t, cfg, recs)
	procC := Start("merge")
	c, err := OpenCoordinator(CoordinatorConfig{Addr: "127.0.0.1:0", Shards: []string{"http://" + s.Addr().String()}, Pots: fixturePots, PullEvery: 20 * time.Millisecond, FailAfter: 3, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	all := uint64(len(recs))
	waitFor(t, "the feed to finish", func() bool { return s.Engine.Seq() == all })
	waitFor(t, "the coordinator to catch up", func() bool { return c.Coord.Snapshot().Seq == all })

	closeNode(t, procC, c, 5*time.Second) // the coordinator before the shard it pulls
	closeNode(t, procS, s, 5*time.Second)
}
