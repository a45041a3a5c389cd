// Package farm orchestrates the honeyfarm: it places N identically
// configured honeypots across the synthetic Internet's countries and
// ASes (the paper's deployment: 221 honeypots, 55 countries, 65 ASes),
// binds each one's SSH and Telnet ports on the in-memory network fabric,
// and funnels every completed session record into the central collector
// store. The cmd/honeypot tool runs the same honeypot code over real TCP
// for a single deployment.
//
// The farm also owns the operational-failure machinery: an optional
// faults.Plan injects connection faults at the fabric and schedules pot
// outage windows, a supervisor restarts downed pots with capped
// exponential backoff, and Stop drains bounded — lingering connections
// are force-closed after Config.DrainTimeout so a stalled session can
// never wedge shutdown.
package farm

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"honeyfarm/internal/faults"
	"honeyfarm/internal/geo"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/netsim"
	"honeyfarm/internal/query"
	"honeyfarm/internal/shell"
	"honeyfarm/internal/store"
)

// DefaultDrainTimeout bounds Stop's graceful drain.
const DefaultDrainTimeout = 5 * time.Second

// Config configures a honeyfarm.
type Config struct {
	// Seed drives honeypot placement and host key generation order.
	Seed int64
	// NumPots, NumASes, Countries configure placement; zero values select
	// the paper's deployment (221 pots, 65 ASes, the 55-country list).
	NumPots   int
	NumASes   int
	Countries []string
	// Registry is the synthetic Internet; required.
	Registry *geo.Registry
	// Epoch is the observation period start for the collector.
	Epoch time.Time
	// Fetch resolves download URIs for all honeypots.
	Fetch shell.FetchFunc
	// FetchRetries, when positive, wraps Fetch with that many total
	// attempts of deterministic retry (shell.RetryFetch, seeded by Seed).
	FetchRetries int
	// PreAuthTimeout/PostAuthTimeout override the honeypots' timeouts
	// (useful to compress wire-level experiments).
	PreAuthTimeout  time.Duration
	PostAuthTimeout time.Duration
	// Now supplies record timestamps.
	Now func() time.Time
	// Latency is the fabric's connection-establishment latency.
	Latency time.Duration
	// Faults, when non-nil and active, injects connection faults at the
	// fabric and schedules pot outage windows.
	Faults *faults.Plan
	// DayLength maps the fault plan's outage days to wall-clock time;
	// outage windows are only scheduled when it is positive.
	DayLength time.Duration
	// DrainTimeout bounds Stop's graceful drain; zero selects
	// DefaultDrainTimeout, negative forces immediate teardown.
	DrainTimeout time.Duration
	// Sink, when non-nil, takes every accepted record before the
	// collector keeps it: appended to the sink's write-ahead log, then
	// folded into its live engine. A record the sink refuses stays in
	// the collector, is counted in Stats.DurableLost, and never reaches
	// the engine.
	Sink *query.Sink
}

// Stats is a snapshot of the farm's operational counters.
type Stats struct {
	// Kills counts pot takedowns (outage windows and Kill calls).
	Kills int
	// Restarts counts successful supervisor rebinds.
	Restarts int
	// ConnFaults counts dials the fault plan refused, reset, or stalled.
	ConnFaults int
	// DroppedRecords counts session records discarded because their pot
	// was down or shutdown had passed the drain deadline.
	DroppedRecords int
	// DurableLost counts records the collector kept but the sink refused
	// — a degraded WAL's count-and-drop losses, distinct from
	// DroppedRecords (which never reached the collector at all).
	DurableLost int
	// Accepted counts session records handed to the collector (the
	// complement of DroppedRecords; durable losses are counted after
	// acceptance).
	Accepted int
}

// potState is the supervisor's view of one honeypot.
type potState struct {
	up        bool
	gen       int // bumped on every takedown; stale restart requests are dropped
	holdUntil time.Time
	listeners []*netsim.Listener
}

// Farm is a running honeyfarm.
type Farm struct {
	cfg         Config
	fabric      *netsim.Fabric
	deployments []geo.Deployment
	pots        []*honeypot.Honeypot
	collector   *store.Store

	mu      sync.Mutex
	states  []potState
	started bool
	stopped bool
	forced  bool // drain deadline passed; further records are dropped
	stats   Stats
	// durableErr is the first error the sink returned.
	durableErr error
	// droppedByPot splits Stats.DroppedRecords per honeypot, feeding the
	// availability table's sink_drops column.
	droppedByPot []int
	// acceptedByPot splits Stats.Accepted per honeypot for /metrics.
	acceptedByPot []int

	connMu sync.Mutex
	conns  map[net.Conn]int // live connection -> pot index

	stopCh    chan struct{}
	restarter *faults.Restarter
	connSeq   atomic.Uint64
	wg        sync.WaitGroup
}

// New builds the farm: placement, honeypots, collector. Call Start to
// bind listeners.
func New(cfg Config) (*Farm, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("farm: Config.Registry is required")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("farm: %w", err)
	}
	if cfg.NumPots == 0 {
		cfg.NumPots = 221
	}
	if cfg.NumASes == 0 {
		cfg.NumASes = 65
	}
	// Small farms cannot cover the full 55-country list; shrink the
	// defaults to match, as the generator does.
	if cfg.Countries == nil && cfg.NumPots < len(geo.HoneyfarmCountries) {
		cfg.Countries = geo.HoneyfarmCountries[:cfg.NumPots]
		if cfg.NumASes > cfg.NumPots {
			cfg.NumASes = cfg.NumPots
		}
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.Fetch != nil && cfg.FetchRetries > 0 {
		cfg.Fetch = shell.RetryFetch(cfg.Fetch, shell.RetryFetchOptions{
			Attempts: cfg.FetchRetries,
			Seed:     cfg.Seed,
		})
	}
	deployments, err := geo.Place(geo.PlacementConfig{
		Seed:       cfg.Seed,
		NumPots:    cfg.NumPots,
		NumASes:    cfg.NumASes,
		Countries:  cfg.Countries,
		Registry:   cfg.Registry,
		Residental: true,
	})
	if err != nil {
		return nil, fmt.Errorf("farm: placement: %w", err)
	}
	f := &Farm{
		cfg:           cfg,
		fabric:        netsim.NewFabric(cfg.Latency),
		deployments:   deployments,
		collector:     store.New(cfg.Epoch),
		states:        make([]potState, len(deployments)),
		droppedByPot:  make([]int, len(deployments)),
		acceptedByPot: make([]int, len(deployments)),
		conns:         make(map[net.Conn]int),
		stopCh:        make(chan struct{}),
	}
	for i, d := range deployments {
		pot, err := honeypot.New(honeypot.Config{
			ID:              d.ID,
			Fetch:           cfg.Fetch,
			PreAuthTimeout:  cfg.PreAuthTimeout,
			PostAuthTimeout: cfg.PostAuthTimeout,
			Now:             cfg.Now,
			Sink:            f.sinkFor(i),
		})
		if err != nil {
			return nil, fmt.Errorf("farm: honeypot %d: %w", d.ID, err)
		}
		f.pots = append(f.pots, pot)
	}
	return f, nil
}

// sinkFor wraps the collector for pot i: records are counted and
// dropped — never blocked on — when the pot is down or the drain
// deadline has passed. An accepted record goes through Config.Sink
// first; the collector keeps it either way, so a failing disk costs
// replay coverage, never the dataset.
func (f *Farm) sinkFor(i int) func(*honeypot.SessionRecord) {
	return func(rec *honeypot.SessionRecord) {
		f.mu.Lock()
		// A pot-down drop only applies while the farm is running: during
		// a farm-wide Stop all pots are down but sessions finishing
		// inside the drain window still count.
		drop := f.forced || (!f.stopped && !f.states[i].up)
		if drop {
			f.stats.DroppedRecords++
			f.droppedByPot[i]++
		} else {
			f.stats.Accepted++
			f.acceptedByPot[i]++
		}
		f.mu.Unlock()
		if drop {
			return
		}
		if f.cfg.Sink != nil {
			if err := f.cfg.Sink.Ingest([]*honeypot.SessionRecord{rec}); err != nil {
				f.mu.Lock()
				f.stats.DurableLost++
				if f.durableErr == nil {
					f.durableErr = err
				}
				f.mu.Unlock()
			}
		}
		f.collector.Add(rec)
	}
}

// Deployments returns the farm's placement table.
func (f *Farm) Deployments() []geo.Deployment { return f.deployments }

// Collector returns the central session store.
func (f *Farm) Collector() *store.Store { return f.collector }

// Fabric returns the network fabric attackers dial through.
func (f *Farm) Fabric() *netsim.Fabric { return f.fabric }

// Honeypot returns honeypot i.
func (f *Farm) Honeypot(i int) *honeypot.Honeypot { return f.pots[i] }

// Stats returns a snapshot of the operational counters.
func (f *Farm) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// FaultReport renders the farm's loss accounting as a faults.Report
// covering days observation days: the plan's outage windows (when one
// is configured) plus the per-pot sink-drop counters, so availability
// tables over wire-farm data distinguish collector losses from
// injected faults.
func (f *Farm) FaultReport(days int) *faults.Report {
	rep := faults.NewReport(f.cfg.Faults, len(f.pots), days)
	f.mu.Lock()
	defer f.mu.Unlock()
	for pot, n := range f.droppedByPot {
		rep.AddSinkDrops(pot, n)
	}
	return rep
}

// DurableErr reports the first error the sink returned, if any.
func (f *Farm) DurableErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.durableErr
}

// PotUp reports whether honeypot i currently has bound listeners.
func (f *Farm) PotUp(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.states[i].up
}

// SSHAddr returns honeypot i's SSH endpoint on the fabric.
func (f *Farm) SSHAddr(i int) netsim.Addr {
	return netsim.Addr{IP: geo.Uint32ToAddr(f.deployments[i].IP).String(), Port: 22}
}

// TelnetAddr returns honeypot i's Telnet endpoint on the fabric.
func (f *Farm) TelnetAddr(i int) netsim.Addr {
	return netsim.Addr{IP: geo.Uint32ToAddr(f.deployments[i].IP).String(), Port: 23}
}

// Start binds every honeypot's SSH and Telnet ports, begins serving,
// and launches the supervisor plus any planned outage windows.
func (f *Farm) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return fmt.Errorf("farm: already started")
	}
	if f.stopped {
		return fmt.Errorf("farm: already stopped")
	}
	for i := range f.deployments {
		if err := f.bindLocked(i); err != nil {
			f.takedownAllLocked()
			return err
		}
	}
	if f.cfg.Faults.ConnActive() {
		f.installFaultHook()
	}
	f.restarter = faults.NewRestarter(faults.RestarterConfig{
		Backoff: f.cfg.Faults.Backoff,
		Hold:    f.restartHold,
		Try:     f.tryRestart,
		Stop:    f.stopCh,
		Pending: 2*len(f.deployments) + 8,
	})
	if f.cfg.Faults != nil && f.cfg.DayLength > 0 {
		f.scheduleOutages()
	}
	f.started = true
	return nil
}

// bindLocked binds pot i's SSH and Telnet listeners and starts their
// accept loops. Caller holds f.mu.
func (f *Farm) bindLocked(i int) error {
	d := f.deployments[i]
	ip := geo.Uint32ToAddr(d.IP).String()
	sshL, err := f.fabric.Listen(ip, 22)
	if err != nil {
		return fmt.Errorf("farm: honeypot %d ssh listen: %w", d.ID, err)
	}
	telL, err := f.fabric.Listen(ip, 23)
	if err != nil {
		_ = sshL.Close()
		return fmt.Errorf("farm: honeypot %d telnet listen: %w", d.ID, err)
	}
	st := &f.states[i]
	st.up = true
	st.listeners = []*netsim.Listener{sshL, telL}
	pot := f.pots[i]
	f.serve(sshL, i, st.gen, pot.ServeSSH)
	f.serve(telL, i, st.gen, pot.ServeTelnet)
	return nil
}

// installFaultHook points the fabric at the plan's deterministic
// connection-fault stream and counts injected faults.
func (f *Farm) installFaultHook() {
	plan := f.cfg.Faults
	f.fabric.SetFaultHook(func(src string, dst netsim.Addr) netsim.ConnFault {
		seq := f.connSeq.Add(1) - 1
		d := plan.ConnFault(seq)
		if d.Refuse || d.ResetAfter > 0 || d.Stall {
			f.mu.Lock()
			f.stats.ConnFaults++
			f.mu.Unlock()
		}
		return netsim.ConnFault{
			Refuse:     d.Refuse,
			ResetAfter: d.ResetAfter,
			Stall:      d.Stall,
			Jitter:     d.Jitter,
		}
	})
}

// serve runs l's accept loop for pot under generation gen, the one the
// listener was bound in. A takedown bumps the generation before it
// sweeps f.conns, so a connection the sweep missed — accepted, not yet
// registered — finds the generation stale once it is, and is closed
// here instead.
func (f *Farm) serve(l *netsim.Listener, pot, gen int, handle func(net.Conn)) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			f.connMu.Lock()
			f.conns[c] = pot
			f.connMu.Unlock()
			f.mu.Lock()
			stale := f.states[pot].gen != gen
			f.mu.Unlock()
			if stale {
				_ = c.Close()
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				handle(c)
				f.connMu.Lock()
				delete(f.conns, c)
				f.connMu.Unlock()
			}()
		}
	}()
}

// restartHold is the Restarter's hold floor: the remainder of the
// pot's planned outage window, so supervised restarts never cut an
// outage short.
func (f *Farm) restartHold(pot int) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Until(f.states[pot].holdUntil)
}

// tryRestart is the Restarter's attempt callback: re-bind pot's
// listeners unless the request was superseded. A bind conflict retries
// with the next backoff step.
func (f *Farm) tryRestart(pot, gen, _ int) faults.RestartOutcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := &f.states[pot]
	if f.stopped || st.up || st.gen != gen {
		// Superseded: farm stopping, already restarted, or a newer
		// takedown owns this pot now.
		return faults.RestartDone
	}
	if err := f.bindLocked(pot); err != nil {
		return faults.RestartRetry
	}
	f.stats.Restarts++
	return faults.RestartDone
}

// Kill takes honeypot i down as if it crashed: listeners unbind, its
// in-flight connections are severed, and the supervisor restarts it
// after backoff. No-op when the pot is already down or the farm is
// stopping.
func (f *Farm) Kill(i int) { f.killUntil(i, time.Time{}) }

func (f *Farm) killUntil(i int, hold time.Time) {
	f.mu.Lock()
	st := &f.states[i]
	if f.stopped || !st.up {
		f.mu.Unlock()
		return
	}
	st.up = false
	st.gen++
	st.holdUntil = hold
	ls := st.listeners
	st.listeners = nil
	gen := st.gen
	f.stats.Kills++
	f.mu.Unlock()
	for _, l := range ls {
		_ = l.Close()
	}
	f.connMu.Lock()
	for c, pot := range f.conns {
		if pot == i {
			_ = c.Close()
		}
	}
	f.connMu.Unlock()
	f.restarter.Request(i, gen)
}

// scheduleOutages arms one timer goroutine per planned outage window,
// mapping plan days to wall-clock via Config.DayLength. Caller holds
// f.mu (during Start).
func (f *Farm) scheduleOutages() {
	dl := f.cfg.DayLength
	for _, o := range f.cfg.Faults.Outages {
		if o.Pot < 0 || o.Pot >= len(f.pots) {
			continue
		}
		o := o
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			select {
			case <-f.stopCh:
				return
			case <-time.After(time.Duration(o.FirstDay) * dl):
			}
			f.killUntil(o.Pot, time.Now().Add(time.Duration(o.Days())*dl))
		}()
	}
}

// Stop unbinds all listeners and drains in-flight sessions, bounded by
// Config.DrainTimeout: connections still alive at the deadline are
// force-closed, and records they emit afterwards are counted as dropped
// rather than collected. Stop is idempotent and always returns with the
// farm's goroutines joined.
func (f *Farm) Stop() {
	f.mu.Lock()
	restarter := f.restarter
	if f.stopped {
		f.mu.Unlock()
		f.wg.Wait()
		if restarter != nil {
			restarter.Wait()
		}
		return
	}
	f.stopped = true
	f.started = false
	close(f.stopCh)
	f.takedownAllLocked()
	drain := f.cfg.DrainTimeout
	if drain == 0 {
		drain = DefaultDrainTimeout
	}
	f.mu.Unlock()

	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		if restarter != nil {
			restarter.Wait()
		}
		close(done)
	}()
	if drain > 0 {
		select {
		case <-done:
			return
		case <-time.After(drain):
		}
	}
	// Deadline passed (or immediate teardown requested): sever every
	// lingering connection and drop whatever records still trickle in.
	f.mu.Lock()
	f.forced = true
	f.mu.Unlock()
	f.connMu.Lock()
	for c := range f.conns {
		_ = c.Close()
	}
	f.connMu.Unlock()
	<-done
}

// takedownAllLocked closes every bound listener. Caller holds f.mu.
func (f *Farm) takedownAllLocked() {
	for i := range f.states {
		st := &f.states[i]
		st.up = false
		for _, l := range st.listeners {
			_ = l.Close()
		}
		st.listeners = nil
	}
}
