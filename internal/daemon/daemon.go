// Package daemon is the process lifecycle cmd/serve, cmd/shard and
// cmd/merge share. main calls Start, Listen, Wait, Drain and CheckLeaks
// in that order and writes its own stop steps inline between them; each
// call returns its error instead of exiting, so a failed drain or a
// serve error still reaches the stop steps behind it.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/metrics"
)

// Flags declares the three flags every daemon has.
func Flags(addrDefault, addrUsage string) (addr, addrFile *string, drain *time.Duration) {
	return flag.String("addr", addrDefault, addrUsage),
		flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)"),
		flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
}

// Process is a daemon's signal channel and goroutine baseline.
type Process struct {
	name     string
	sigc     chan os.Signal
	baseline int
}

// Start registers SIGINT/SIGTERM and then takes the goroutine baseline,
// before main starts anything. In that order: os/signal starts a
// permanent goroutine on first Notify, which would read as a leak.
func Start(name string) *Process {
	p := &Process{name: name, sigc: make(chan os.Signal, 1)}
	signal.Notify(p.sigc, os.Interrupt, syscall.SIGTERM)
	p.baseline = runtime.NumGoroutine()
	return p
}

// Mux mounts reg at /metrics and root at /, after adding the binary's
// build info and three runtime gauges to reg.
func Mux(component string, reg *metrics.Registry, root http.Handler) *http.ServeMux {
	reg.Gauge("honeyfarm_build_info", "Constant 1, labelled with the binary and the Go version that built it.",
		metrics.Labels{"component": component, "go_version": runtime.Version()}).Set(1)
	for _, m := range []struct{ name, help, src string }{
		{"honeyfarm_runtime_goroutines", "Live goroutines.", "/sched/goroutines:goroutines"},
		{"honeyfarm_runtime_heap_live_bytes", "Heap bytes the last GC cycle marked live.", "/gc/heap/live:bytes"},
		{"honeyfarm_runtime_gc_pause_cpu_seconds", "Cumulative CPU time the GC held the program paused (estimate).", "/cpu/classes/gc/pause:cpu-seconds"},
	} {
		reg.GaugeFunc(m.name, m.help, nil, func() float64 {
			s := []rtmetrics.Sample{{Name: m.src}}
			rtmetrics.Read(s)
			if s[0].Value.Kind() == rtmetrics.KindFloat64 {
				return s[0].Value.Float64()
			}
			return float64(s[0].Value.Uint64())
		})
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", root)
	return mux
}

// Listener is a bound address and the HTTP server on it.
type Listener struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed once Serve has returned err
	err  error
}

// Listen binds addr, writes the bound address and a newline to addrFile
// when one is named, and serves h.
func Listen(addr, addrFile string, h http.Handler) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if addrFile != "" {
		// Atomically: scripts poll this file and must never read half an address.
		if err := atomicio.WriteFileBytes(addrFile, []byte(ln.Addr().String()+"\n")); err != nil {
			ln.Close()
			return nil, fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	// Shutdown leaves request contexts alone, and a request parked on its
	// context (a shard pull waiting for news) would hold the drain for as
	// long as it waits: the base context ends as the shutdown begins.
	ctx, wake := context.WithCancel(context.Background())
	l := &Listener{ln: ln, done: make(chan struct{})}
	l.srv = &http.Server{Handler: h, BaseContext: func(net.Listener) context.Context { return ctx }}
	l.srv.RegisterOnShutdown(wake)
	go func() { l.err = l.srv.Serve(ln); close(l.done) }()
	return l, nil
}

// Addr is the bound address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Wait blocks until SIGINT/SIGTERM or until the server fails; either
// way the caller goes on to stop and drain, and Drain reports a failure.
func (p *Process) Wait(l *Listener) {
	select {
	case <-l.done:
	case sig := <-p.sigc:
		log.Printf("%s: %v: draining...", p.name, sig)
	}
}

// Drain stops accepting and waits up to timeout for in-flight requests;
// past that it force-closes them and reports the timeout, so that the
// caller's remaining stop steps still run.
func (l *Listener) Drain(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(fmt.Errorf("drain: %w", err), l.srv.Close())
	}
	if <-l.done; !errors.Is(l.err, http.ErrServerClosed) {
		err = errors.Join(err, l.err)
	}
	return err
}

// CheckLeaks reports goroutines started since Start and still running.
// net/http's workers unwind after Shutdown returns, hence the settling.
func (p *Process) CheckLeaks() error {
	leaked := 0
	for i := 0; i < 200; i++ {
		if leaked = runtime.NumGoroutine() - p.baseline; leaked <= 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%d goroutines leaked after drain", leaked)
}
