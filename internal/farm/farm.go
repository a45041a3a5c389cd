// Package farm orchestrates the honeyfarm: it places N identically
// configured honeypots across the synthetic Internet's countries and
// ASes (the paper's deployment: 221 honeypots, 55 countries, 65 ASes),
// binds each one's SSH and Telnet ports on the in-memory network fabric,
// serves them through one honeypot.Server, and funnels every completed
// session record into the central collector store. The cmd/honeypot tool
// serves the same honeypot code through the same server over real TCP.
//
// The farm keeps what is its own: placement, an optional faults.Plan
// that injects connection faults at the fabric and schedules pot outage
// windows, and one restart goroutine per takedown, which rebinds the pot
// after capped exponential backoff. Kill severs one pot on the server;
// Stop closes the server and drains it bounded by Config.DrainTimeout,
// so a stalled session can never wedge shutdown.
package farm

import (
	"fmt"
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

// Config configures a honeyfarm.
type Config struct {
	// Seed drives honeypot placement and host key generation order.
	Seed int64
	// NumPots, NumASes, Countries configure placement; zero values select
	// the paper's deployment (221 pots, and geo.Place's defaults).
	NumPots   int
	NumASes   int
	Countries []string
	// Registry is the synthetic Internet; required.
	Registry *geo.Registry
	// Epoch is the observation period start for the collector.
	Epoch time.Time
	// Fetch resolves download URIs for all honeypots.
	Fetch shell.FetchFunc
	// PreAuthTimeout/PostAuthTimeout override the honeypots' timeouts
	// (useful to compress wire-level experiments).
	PreAuthTimeout  time.Duration
	PostAuthTimeout time.Duration
	// Now supplies record timestamps.
	Now func() time.Time
	// Faults, when non-nil and active, injects connection faults at the
	// fabric and schedules pot outage windows.
	Faults *faults.Plan
	// DayLength maps the fault plan's outage days to wall-clock time;
	// outage windows are only scheduled when it is positive.
	DayLength time.Duration
	// DrainTimeout bounds Stop's graceful drain; zero selects
	// honeypot.DefaultDrainTimeout, negative forces immediate teardown.
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
	// Kills counts pot takedowns (outage windows and Kill calls). A
	// window that fires while its pot is already down only extends the
	// hold and is not counted again.
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
	gen       int       // bumped on every takedown; a stale restart bows out
	holdUntil time.Time // no rebind before: the latest outage window's end
}

// Farm is a running honeyfarm.
type Farm struct {
	cfg         Config
	fabric      *netsim.Fabric
	deployments []geo.Deployment
	pots        []*honeypot.Honeypot
	collector   *store.Store
	srv         honeypot.Server

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

	stopCh  chan struct{}
	connSeq atomic.Uint64
	wg      sync.WaitGroup // outage timers and restarts
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
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)
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
		fabric:        netsim.NewFabric(),
		deployments:   deployments,
		collector:     store.New(cfg.Epoch),
		states:        make([]potState, len(deployments)),
		droppedByPot:  make([]int, len(deployments)),
		acceptedByPot: make([]int, len(deployments)),
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
// and arms any planned outage windows.
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
			for j := 0; j < i; j++ {
				f.states[j].up = false
				f.srv.Sever(j)
			}
			return err
		}
	}
	if f.cfg.Faults.ConnActive() {
		f.installFaultHook()
	}
	if f.cfg.Faults != nil && f.cfg.DayLength > 0 {
		f.scheduleOutages()
	}
	f.started = true
	return nil
}

// bindLocked binds pot i's SSH and Telnet listeners and serves them.
// Caller holds f.mu.
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
	f.states[i].up = true
	pot := f.pots[i]
	f.srv.Serve(i, sshL, pot.ServeSSH)
	f.srv.Serve(i, telL, pot.ServeTelnet)
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

// Kill takes honeypot i down as if it crashed: listeners unbind, its
// in-flight connections are severed, and the pot is restarted after
// backoff. No-op when the pot is already down or the farm is stopping.
func (f *Farm) Kill(i int) { f.killUntil(i, time.Time{}) }

// killUntil takes pot i down under a fresh generation and starts its
// restart, which does not rebind before hold. A pot already down only
// has its hold extended to the later end.
func (f *Farm) killUntil(i int, hold time.Time) {
	f.mu.Lock()
	st := &f.states[i]
	if f.stopped || !st.up {
		if hold.After(st.holdUntil) {
			st.holdUntil = hold
		}
		f.mu.Unlock()
		return
	}
	st.up = false
	st.gen++
	st.holdUntil = hold
	gen := st.gen
	f.stats.Kills++
	f.wg.Add(1) // under mu: Stop cannot miss a restart still to start
	f.mu.Unlock()
	f.srv.Sever(i)
	go f.restart(i, gen)
}

// restart rebinds pot after takedown gen: attempt k waits the plan's
// backoff, raised to what is left of the pot's hold, and a failed
// attempt retries with the next step. It ends when a rebind succeeds,
// the takedown is superseded, or the farm stops.
func (f *Farm) restart(pot, gen int) {
	defer f.wg.Done()
	for attempt := 0; ; attempt++ {
		f.mu.Lock()
		delay := max(f.cfg.Faults.Backoff(pot, attempt), time.Until(f.states[pot].holdUntil))
		f.mu.Unlock()
		select {
		case <-f.stopCh:
			return
		case <-time.After(delay):
		}
		if f.tryRestart(pot, gen) {
			return
		}
	}
}

// tryRestart re-binds pot's listeners unless takedown gen was
// superseded, and reports whether the restart is over. An attempt
// inside the hold or a bind conflict leaves it to the next one.
func (f *Farm) tryRestart(pot, gen int) (done bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := &f.states[pot]
	if f.stopped || st.up || st.gen != gen {
		// Superseded: farm stopping, already restarted, or a newer
		// takedown owns this pot now.
		return true
	}
	if time.Now().Before(st.holdUntil) || f.bindLocked(pot) != nil {
		return false
	}
	f.stats.Restarts++
	return true
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

// Stop marks every pot down, closes the server's listeners and drains
// in-flight sessions, bounded by Config.DrainTimeout: connections still
// alive at the deadline are force-closed, and records they emit
// afterwards are counted as dropped rather than collected. Stop is
// idempotent and always returns with the farm's goroutines joined.
func (f *Farm) Stop() {
	f.mu.Lock()
	if !f.stopped {
		f.stopped = true
		f.started = false
		close(f.stopCh)
		for i := range f.states {
			f.states[i].up = false
		}
	}
	f.mu.Unlock()
	_ = f.srv.Close() // fabric listeners close without error
	drain := f.cfg.DrainTimeout
	if drain == 0 {
		drain = honeypot.DefaultDrainTimeout
	}
	f.srv.Drain(drain, func() {
		f.mu.Lock()
		f.forced = true
		f.mu.Unlock()
	})
	f.wg.Wait()
}
