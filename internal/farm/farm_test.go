package farm

import (
	"encoding/json"
	"io"
	"testing"
	"time"

	"honeyfarm/internal/geo"
	"honeyfarm/internal/query"
	"honeyfarm/internal/sshwire"
	"honeyfarm/internal/telnet"
)

func smallFarm(t *testing.T) *Farm {
	t.Helper()
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	f, err := New(Config{
		Seed:      1,
		NumPots:   8,
		NumASes:   6,
		Countries: []string{"US", "SG", "DE", "JP", "BR", "ZA"},
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

func TestFarmPlacementMetadata(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	f, err := New(Config{Seed: 3, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Paper deployment: 221 honeypots, 55 countries, 65 ASes (Figure 1).
	deps := f.Deployments()
	if len(deps) != 221 {
		t.Fatalf("pots = %d, want 221", len(deps))
	}
	countries := map[string]bool{}
	ases := map[uint32]bool{}
	for _, d := range deps {
		countries[d.Country] = true
		ases[d.ASN] = true
	}
	if len(countries) != 55 || len(ases) != 65 {
		t.Errorf("countries=%d ases=%d, want 55/65", len(countries), len(ases))
	}
}

func TestFarmRequiresRegistry(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without registry should fail")
	}
}

func TestFarmDoubleStart(t *testing.T) {
	f := smallFarm(t)
	if err := f.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
}

func TestWireLevelSSHSessionIntoCollector(t *testing.T) {
	f := smallFarm(t)
	nc, err := f.Fabric().Dial("203.0.113.7", f.SSHAddr(2))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "hunter2"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cc.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := sshwire.RequestExec(sess, "uname -a"); err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(sess)
	cc.Close()

	deadline := time.Now().Add(5 * time.Second)
	for f.Collector().Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	recs := f.Collector().Records()
	if len(recs) != 1 {
		t.Fatalf("collector records = %d", len(recs))
	}
	r := recs[0]
	if r.HoneypotID != 2 {
		t.Errorf("honeypot id = %d, want 2", r.HoneypotID)
	}
	if r.ClientIP != "203.0.113.7" || len(r.Commands) != 1 {
		t.Errorf("record = %+v", r)
	}
}

func TestWireLevelTelnetSessionIntoCollector(t *testing.T) {
	f := smallFarm(t)
	nc, err := f.Fabric().Dial("203.0.113.8", f.TelnetAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	c := telnet.NewConn(nc, false)
	ok, err := telnet.ClientLogin(c, "root", "1234")
	if err != nil || !ok {
		t.Fatalf("telnet login ok=%v err=%v", ok, err)
	}
	nc.Close()

	deadline := time.Now().Add(5 * time.Second)
	for f.Collector().Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	recs := f.Collector().Records()
	if len(recs) != 1 || recs[0].HoneypotID != 0 {
		t.Fatalf("records = %+v", recs)
	}
	if !recs[0].LoggedIn() {
		t.Error("telnet login not recorded")
	}
}

func TestEveryHoneypotReachable(t *testing.T) {
	f := smallFarm(t)
	for i := range f.Deployments() {
		nc, err := f.Fabric().Dial("198.51.100.77", f.SSHAddr(i))
		if err != nil {
			t.Fatalf("dial pot %d: %v", i, err)
		}
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{SkipAuth: true})
		if err != nil {
			t.Fatalf("handshake pot %d: %v", i, err)
		}
		cc.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.Collector().Len() < len(f.Deployments()) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := f.Collector().Len(); got != len(f.Deployments()) {
		t.Errorf("collector = %d records, want %d", got, len(f.Deployments()))
	}
}

func TestDeploymentGeoConsistency(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	f, err := New(Config{Seed: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Deployments() {
		loc, ok := reg.Lookup(d.IP)
		if !ok {
			t.Fatalf("honeypot %d IP not in registry", d.ID)
		}
		if loc.Country != d.Country || loc.ASN != d.ASN {
			t.Errorf("honeypot %d: deployment says %s/AS%d, registry says %s/AS%d",
				d.ID, d.Country, d.ASN, loc.Country, loc.ASN)
		}
	}
}

// TestFarmTeeFeedsQueryEngine wires a live aggregation engine into the
// farm via Config.Sink (no WAL): wire-level sessions reach the engine,
// so its sealed snapshot is byte-identical to one fed the collector's
// records directly.
func TestFarmTeeFeedsQueryEngine(t *testing.T) {
	reg := geo.NewRegistry(geo.Config{Seed: 1})
	mk := func() *query.Engine {
		return query.New(query.Config{
			Epoch:    time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC),
			NumPots:  8,
			Registry: reg,
		})
	}
	eng := mk()
	f, err := New(Config{
		Seed:      1,
		NumPots:   8,
		NumASes:   6,
		Countries: []string{"US", "SG", "DE", "JP", "BR", "ZA"},
		Registry:  reg,
		Sink:      query.NewSink(nil, eng),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		nc, err := f.Fabric().Dial("203.0.113.9", f.SSHAddr(i))
		if err != nil {
			t.Fatal(err)
		}
		cc, err := sshwire.NewClientConn(nc, &sshwire.ClientConfig{User: "root", Password: "hunter2"})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := cc.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := sshwire.RequestExec(sess, "id"); err != nil {
			t.Fatal(err)
		}
		_, _ = io.ReadAll(sess)
		cc.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.Collector().Len() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	f.Stop()

	recs := f.Collector().Records()
	if len(recs) != 3 {
		t.Fatalf("collector records = %d, want 3", len(recs))
	}
	got := eng.Seal()
	if got.Seq != uint64(len(recs)) {
		t.Fatalf("tee-fed engine seq = %d, want %d", got.Seq, len(recs))
	}
	direct := mk()
	direct.Ingest(recs)
	a, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(direct.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("tee-fed snapshot diverges from direct ingest\ntee:    %.200s\ndirect: %.200s", a, b)
	}
}
