package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

func testTargets(n int) []Target {
	ts := make([]Target, n)
	for i := range ts {
		ts[i] = Target{Pot: i * 2, SSHAddr: fmt.Sprintf("127.0.0.1:%d", 10000+i), TelnetAddr: fmt.Sprintf("127.0.0.1:%d", 20000+i)}
	}
	return ts
}

func TestPlanDeterminism(t *testing.T) {
	cfg := PlanConfig{Seed: 42, Rate: 100, Duration: 5 * time.Second, Targets: testTargets(3)}
	p1, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Digest() != p2.Digest() {
		t.Fatal("same config produced different plan digests")
	}
	s1, err := MarshalIndent(Summarize(p1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := MarshalIndent(Summarize(p2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("same config produced different plan summaries")
	}

	cfg.Seed = 43
	p3, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Digest() == p1.Digest() {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlanMix(t *testing.T) {
	p, err := BuildPlan(PlanConfig{Seed: 7, Rate: 2000, Duration: 5 * time.Second, Targets: testTargets(4)})
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Arrivals)
	// Poisson with mean 10000: stay within ±10%.
	if n < 9000 || n > 11000 {
		t.Fatalf("arrival count %d far from expectation 10000", n)
	}
	s := Summarize(p)
	// Table 1's dominant class is FAIL_LOG at 42%.
	if frac := float64(s.ByCategory["FAIL_LOG"]) / float64(n); frac < 0.38 || frac > 0.46 {
		t.Errorf("FAIL_LOG fraction %.3f outside [0.38, 0.46]", frac)
	}
	if s.ByProtocol["ssh"] == 0 || s.ByProtocol["telnet"] == 0 {
		t.Error("expected both protocols in the mix")
	}
	if len(s.ByPot) != 4 {
		t.Errorf("expected all 4 pots targeted, got %d", len(s.ByPot))
	}
	// Arrivals are sorted and inside the window by construction.
	last := time.Duration(-1)
	for _, a := range p.Arrivals {
		if a.At <= last {
			t.Fatal("arrivals not strictly increasing")
		}
		if a.At >= p.Duration {
			t.Fatal("arrival past the window")
		}
		last = a.At
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := BuildPlan(PlanConfig{Rate: 0, Duration: time.Second, Targets: testTargets(1)}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := BuildPlan(PlanConfig{Rate: 1, Duration: 0, Targets: testTargets(1)}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := BuildPlan(PlanConfig{Rate: 1, Duration: time.Second}); err == nil {
		t.Error("no targets accepted")
	}
}

// fakeClock is a virtual clock: Sleep advances it instantly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestDriverErrorTaxonomy(t *testing.T) {
	plan, err := BuildPlan(PlanConfig{Seed: 3, Rate: 50, Duration: time.Second, Targets: testTargets(2)})
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	res, err := Run(Config{
		Plan: plan,
		Dial: func(Target, bool) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		Now:   clock.Now,
		Sleep: clock.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Started != len(plan.Arrivals) {
		t.Fatalf("started %d of %d arrivals", res.Started, len(plan.Arrivals))
	}
	if res.Completed != 0 {
		t.Fatalf("completed %d sessions against a refusing dialer", res.Completed)
	}
	if res.Errors[ErrDial] != len(plan.Arrivals) {
		t.Fatalf("dial errors = %v, want all %d in %q", res.Errors, len(plan.Arrivals), ErrDial)
	}
	rep := BuildReport(res)
	if rep.PlanSHA256 != plan.Digest() {
		t.Fatal("report digest mismatch")
	}
	if rep.LatencySeconds["p99"] != 0 {
		t.Fatal("latency quantiles should be zero with no completions")
	}
	if _, err := MarshalIndent(rep); err != nil {
		t.Fatalf("report not JSON-marshalable: %v", err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{&dialError{errors.New("refused")}, ErrDial},
		{os.ErrDeadlineExceeded, ErrTimeout},
		{io.EOF, ErrReset},
		{io.ErrUnexpectedEOF, ErrReset},
		{net.ErrClosed, ErrReset},
		{errors.New("read tcp: connection reset by peer"), ErrReset},
		{errors.New("ssh: unexpected packet"), ErrProtocol},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

func TestScrapeAndReconcile(t *testing.T) {
	body := "# HELP honeyfarm_wire_sessions_accepted_total x\n" +
		"# TYPE honeyfarm_wire_sessions_accepted_total counter\n" +
		"honeyfarm_wire_sessions_accepted_total 7\n" +
		"honeyfarm_wire_pot_sessions_total{pot=\"0\"} 4\n" +
		"honeyfarm_wire_pot_sessions_total{pot=\"2\"} 3\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer srv.Close()

	v, err := ScrapeCounter(srv.Client(), srv.URL, "honeyfarm_wire_sessions_accepted_total")
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("scraped %g, want 7", v)
	}
	// Labeled children sum across the family.
	v, err = ScrapeCounter(srv.Client(), srv.URL, "honeyfarm_wire_pot_sessions_total")
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("summed %g, want 7", v)
	}
	// A prefix of another family must not match.
	if _, err := ScrapeCounter(srv.Client(), srv.URL, "honeyfarm_wire_pot_sessions"); err == nil {
		t.Fatal("prefix matched a longer family name")
	}

	res, err := Reconcile([]string{srv.URL, srv.URL}, 14, 3, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match || res.Got != 14 {
		t.Fatalf("reconcile = %+v, want match at 14", res)
	}
	res, err = Reconcile([]string{srv.URL}, 8, 2, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.Match {
		t.Fatal("reconcile matched a short count")
	}
}
