package main

// In-memory tracing for the traced run: a span is recorded around each
// call the benchmark makes into a layer (name, start, end, the span
// that caused it, and the request it belongs to). Spans stay in memory
// while the workload runs and are written out once, after measuring.
// A nil *tracer is the untraced run: begin and end do nothing.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

type spanID int32

// noSpan is the parent of a root span, and what a nil tracer hands out.
const noSpan spanID = -1

// span is one timed call. Start and End are nanoseconds since the
// tracer was created; Parent indexes the trace file's lines (0-based).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent spanID `json:"parent"`
	Req    int64  `json:"req"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span caused by parent on behalf of request req.
func (t *tracer) begin(name string, parent spanID, req int64) spanID {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTrace writes one JSON object per span, in span-id order.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (two client goroutines under one pass) and may outlive the parent;
// the covered part is the union of their intervals clipped to the
// parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[spanID][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[spanID(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// leafCover is how much of [lo, hi) the leaf spans inside it cover
// between them: the wall time some layer call accounts for. A leaf is
// a span that caused no other; phases and passes are never leaves
// while they have calls under them.
func leafCover(spans []span, lo, hi int64) int64 {
	parent := make(map[spanID]bool, len(spans))
	for _, s := range spans {
		parent[s.Parent] = true
	}
	var leaves []span
	for i, s := range spans {
		if !parent[spanID(i)] && s.Start >= lo && s.End <= hi {
			leaves = append(leaves, s)
		}
	}
	sort.Slice(leaves, func(a, b int) bool { return leaves[a].Start < leaves[b].Start })
	covered, edge := int64(0), lo
	for _, s := range leaves {
		if s.End > edge {
			covered += s.End - max(s.Start, edge)
			edge = s.End
		}
	}
	return covered
}

// layerStat sums one span name.
type layerStat struct {
	count int
	total int64 // Σ duration, ns
	self  int64 // Σ self time, ns
}

func aggregate(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := make(map[string]layerStat)
	for i, s := range spans {
		st := out[s.Name]
		st.count++
		st.total += s.End - s.Start
		st.self += self[i]
		out[s.Name] = st
	}
	return out
}

// printLayers prints, per span name, how often it ran and its total
// and self time, largest self time first, beside the measured phase's
// wall time.
func printLayers(spans []span, wall int64) {
	stats := aggregate(spans)
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return stats[names[a]].self > stats[names[b]].self })
	fmt.Fprintf(os.Stderr, "bench: spans (measured phase %.1f ms)\n", float64(wall)/1e6)
	for _, name := range names {
		st := stats[name]
		fmt.Fprintf(os.Stderr, "bench:   %-22s n=%-7d total %10.1f ms  self %10.1f ms\n", name, st.count, float64(st.total)/1e6, float64(st.self)/1e6)
	}
}

// spanCost times begin/end pairs on a scratch tracer: the per-span
// price the traced run pays, from which trace.overhead_share follows.
func spanCost() time.Duration {
	const n = 200_000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", noSpan, int64(i)))
	}
	return time.Since(start) / n
}
