// Package metrics is a stdlib-only Prometheus text-format registry:
// the operational metrics plane of every daemon (cmd/shard, cmd/merge).
//
// Three things distinguish it from the usual client library:
//
//   - Every series is a func. CounterFunc, GaugeFunc and HistogramFunc
//     read, at scrape time, state its subsystem already keeps, so no
//     hot path gains a metric write or the registry lock. A subsystem
//     with no count of its own keeps a Counter (one atomic add) and
//     exports it through CounterFunc.
//   - Deterministic output. Families render sorted by name, children
//     sorted by label signature, label keys sorted within a signature,
//     and no timestamps — two registries over identical state render
//     byte-identical text, so /metrics is golden-testable like every
//     other endpoint in this repo. Rendering reuses one buffer under
//     the registry mutex.
//   - Histograms are stats.Histogram snapshots, with its log-spaced
//     buckets (stats.LogBuckets), so wire-side and analysis-side
//     histograms agree on bucket layout and merge cleanly.
//
// Registration happens once at process start; duplicate registration
// is a programming error and panics, matching the fail-fast contract
// of flag.Var and http.ServeMux.Handle.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"honeyfarm/internal/stats"
)

// Labels is one metric child's label set. Keys render sorted, so any
// map order produces the same signature.
type Labels map[string]string

// signature renders labels canonically: `{k1="v1",k2="v2"}` with keys
// sorted, or "" for an empty set. Values are escaped per the
// exposition format (backslash, double-quote, newline).
func (l Labels) signature() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// kind is a family's exposition type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing count. The zero value is ready
// to use; a Registry exports it through CounterFunc.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// child is one (family, labels) series.
type child struct {
	sig    string                  // canonical label signature, "" for none
	fn     func() float64          // CounterFunc / GaugeFunc value source
	histFn func() *stats.Histogram // HistogramFunc snapshot source
}

// family is one named metric with its help text, type, and children.
type family struct {
	name     string
	help     string
	kind     kind
	children []*child // sorted by sig
}

func (f *family) add(c *child) {
	i := sort.Search(len(f.children), func(i int) bool { return f.children[i].sig >= c.sig })
	if i < len(f.children) && f.children[i].sig == c.sig {
		panic(fmt.Sprintf("metrics: duplicate registration of %s%s", f.name, c.sig))
	}
	f.children = append(f.children, nil)
	copy(f.children[i+1:], f.children[i:])
	f.children[i] = c
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format (version 0.0.4).
type Registry struct {
	mu       sync.Mutex
	families []*family // sorted by name
	buf      []byte    // render buffer, reused across scrapes
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// familyLocked finds or creates the named family, enforcing one kind
// and one help string per name.
func (r *Registry) familyLocked(name, help string, k kind) *family {
	i := sort.Search(len(r.families), func(i int) bool { return r.families[i].name >= name })
	if i < len(r.families) && r.families[i].name == name {
		f := r.families[i]
		if f.kind != k {
			panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.kind, k))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k}
	r.families = append(r.families, nil)
	copy(r.families[i+1:], r.families[i:])
	r.families[i] = f
	return f
}

// CounterFunc registers a counter whose value is read from fn at each
// render. labels may be nil. fn must be monotonic and safe for
// concurrent use.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, help, kindCounter).add(&child{sig: labels.signature(), fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at each
// render. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, help, kindGauge).add(&child{sig: labels.signature(), fn: fn})
}

// HistogramFunc registers a histogram whose state is snapshotted from
// fn at each render — the subsystem owns its stats.Histogram (e.g. the
// merge coordinator's pull latency). The "le" label is reserved. fn
// must be safe for concurrent use and return a consistent copy.
func (r *Registry) HistogramFunc(name, help string, labels Labels, fn func() *stats.Histogram) {
	if _, reserved := labels["le"]; reserved {
		panic("metrics: label \"le\" is reserved for histogram buckets")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, help, kindHistogram).add(&child{sig: labels.signature(), histFn: fn})
}

// appendValue renders a float the way Prometheus does: integral values
// without an exponent, everything else in shortest-round-trip form.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendSeries renders one `name{labels} value` line. sig already
// carries the braces (or is empty).
func appendSeries(b []byte, name, sig string, v float64) []byte {
	b = append(b, name...)
	b = append(b, sig...)
	b = append(b, ' ')
	b = appendValue(b, v)
	return append(b, '\n')
}

// bucketSig splices `le="bound"` into an existing signature.
func bucketSig(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return sig[:len(sig)-1] + `,le="` + le + `"}`
}

// renderLocked renders every family into r.buf.
func (r *Registry) renderLocked() {
	b := r.buf[:0]
	for _, f := range r.families {
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind.String()...)
		b = append(b, '\n')
		for _, c := range f.children {
			if c.fn != nil {
				b = appendSeries(b, f.name, c.sig, c.fn())
				continue
			}
			h := c.histFn()
			bounds, counts := h.Bounds(), h.Counts()
			var cum uint64
			for i, bound := range bounds {
				cum += counts[i]
				le := string(appendValue(nil, bound))
				b = appendSeries(b, f.name+"_bucket", bucketSig(c.sig, le), float64(cum))
			}
			cum += counts[len(counts)-1]
			b = appendSeries(b, f.name+"_bucket", bucketSig(c.sig, "+Inf"), float64(cum))
			b = appendSeries(b, f.name+"_sum", c.sig, h.Sum())
			b = appendSeries(b, f.name+"_count", c.sig, float64(h.Count()))
		}
	}
	r.buf = b
}

// Render returns the full exposition text. The returned slice is
// owned by the caller.
func (r *Registry) Render() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.renderLocked()
	return append([]byte(nil), r.buf...)
}

// Handler returns the /metrics HTTP handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		r.mu.Lock()
		r.renderLocked()
		body := append([]byte(nil), r.buf...)
		r.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		if req.Method == http.MethodHead {
			return
		}
		if _, err := w.Write(body); err != nil {
			return // client went away mid-write; nothing to recover
		}
	})
}
