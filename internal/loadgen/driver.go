package loadgen

// The open-loop driver: fires the plan's arrivals on the injected
// clock, executes each session script over a real connection, and
// classifies every failure. The driver never touches time.Now or
// time.Sleep directly — the clock comes in through Config, which keeps
// this package on the repo's determinism lint list and lets tests run
// the whole loop on a fake clock.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"honeyfarm/internal/stats"
)

// Error taxonomy buckets. Every failed session lands in exactly one.
const (
	ErrDial     = "dial"     // connection could not be established
	ErrReset    = "reset"    // established connection torn down mid-session
	ErrTimeout  = "timeout"  // an i/o or dial deadline expired
	ErrProtocol = "protocol" // the peer answered, but not the way the script expected
)

// Dialer opens the wire connection for one arrival. ssh selects which
// of the target's two addresses to dial.
type Dialer func(t Target, ssh bool) (net.Conn, error)

// Config parameterizes a driver run.
type Config struct {
	Plan *Plan
	// Dial opens connections; required. TCPDialer covers the real-TCP
	// case.
	Dial Dialer
	// Concurrency bounds simultaneously open sessions (default 64). An
	// arrival whose slot is not free still fires on time once one
	// frees — the wait is visible as schedule slip, not as a rate cut.
	Concurrency int
	// Now and Sleep are the clock; both required. Injected so the
	// schedule math stays deterministic under test.
	Now   func() time.Time
	Sleep func(d time.Duration)
	// SessionTimeout caps one session's wall time via the connection
	// deadline (default 10s).
	SessionTimeout time.Duration
}

// sessionOutcome is one executed arrival's measurement.
type sessionOutcome struct {
	ok      bool
	errKind string
	latency float64 // seconds, completed sessions only
	slip    float64 // seconds late past scheduled start
}

// Result is the raw run outcome Report is built from.
type Result struct {
	Plan      *Plan
	Started   int
	Completed int
	Errors    map[string]int

	latencies *stats.ECDF
	slips     *stats.ECDF

	// Elapsed is the wall time from first scheduled instant to last
	// session completion.
	Elapsed time.Duration
}

// Run executes the plan. It returns when every arrival has been fired
// and every session has finished.
func Run(cfg Config) (*Result, error) {
	if cfg.Plan == nil || cfg.Dial == nil {
		return nil, fmt.Errorf("loadgen: Plan and Dial are required")
	}
	if cfg.Now == nil || cfg.Sleep == nil {
		return nil, fmt.Errorf("loadgen: Now and Sleep are required (inject the clock)")
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 64
	}
	timeout := cfg.SessionTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		sem      = make(chan struct{}, conc)
		outcomes = make([]sessionOutcome, 0, len(cfg.Plan.Arrivals))
	)
	start := cfg.Now()
	for _, a := range cfg.Plan.Arrivals {
		// Open loop: wait for the scheduled instant, not for a free
		// slot. The slot wait after this point is schedule slip.
		if d := start.Add(a.At).Sub(cfg.Now()); d > 0 {
			cfg.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(a Arrival) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := cfg.Now()
			out := sessionOutcome{slip: t0.Sub(start.Add(a.At)).Seconds()}
			if out.slip < 0 {
				out.slip = 0
			}
			err := runSession(cfg.Plan.Targets[a.Target], a.Script, cfg.Dial, t0.Add(timeout))
			if err != nil {
				out.errKind = classify(err)
			} else {
				out.ok = true
				out.latency = cfg.Now().Sub(t0).Seconds()
			}
			mu.Lock()
			outcomes = append(outcomes, out)
			mu.Unlock()
		}(a)
	}
	wg.Wait()
	elapsed := cfg.Now().Sub(start)

	res := &Result{
		Plan:      cfg.Plan,
		Started:   len(outcomes),
		Errors:    map[string]int{},
		latencies: stats.NewECDF(nil),
		slips:     stats.NewECDF(nil),
		Elapsed:   elapsed,
	}
	for _, o := range outcomes {
		res.slips.Add(o.slip)
		if o.ok {
			res.Completed++
			res.latencies.Add(o.latency)
		} else {
			res.Errors[o.errKind]++
		}
	}
	res.latencies.Sort()
	res.slips.Sort()
	return res, nil
}

// TCPDialer dials the target's real-TCP wire address with the given
// per-dial timeout.
func TCPDialer(timeout time.Duration) Dialer {
	return func(t Target, ssh bool) (net.Conn, error) {
		addr := t.SSHAddr
		if !ssh {
			addr = t.TelnetAddr
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// runSession drives one scripted session to completion. deadline is
// computed from the injected clock, so a real run bounds the socket
// with real wall time and a fake-clock test controls it the same way
// it controls the schedule.
func runSession(t Target, s Script, dial Dialer, deadline time.Time) error {
	nc, err := dial(t, s.SSH)
	if err != nil {
		return &dialError{err}
	}
	defer nc.Close()
	nc.SetDeadline(deadline)
	return Execute(nc, s)
}

// dialError wraps a connection-establishment failure so classify can
// separate it from mid-session errors with the same underlying cause.
type dialError struct{ err error }

func (e *dialError) Error() string { return "dial: " + e.err.Error() }
func (e *dialError) Unwrap() error { return e.err }

// classify maps an error into the taxonomy. Order matters: a dial
// timeout is a dial error first.
func classify(err error) string {
	var de *dialError
	if errors.As(err, &de) {
		return ErrDial
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded) {
		return ErrTimeout
	}
	msg := err.Error()
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		strings.Contains(msg, "connection reset") ||
		strings.Contains(msg, "broken pipe") {
		return ErrReset
	}
	return ErrProtocol
}

// quantiles renders an ECDF's p50/p90/p99 with a stable key order for
// the report; an empty ECDF renders zeros (JSON cannot carry NaN).
func quantiles(e *stats.ECDF) map[string]float64 {
	out := map[string]float64{"p50": 0, "p90": 0, "p99": 0}
	if e.Len() == 0 {
		return out
	}
	for _, q := range []struct {
		k string
		p float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		out[q.k] = e.Quantile(q.p)
	}
	return out
}

// sortedKeys returns m's keys in lexical order (stable report output).
func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
