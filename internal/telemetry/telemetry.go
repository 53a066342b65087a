// Package telemetry is the repository's observability subsystem: a
// zero-dependency, allocation-conscious metrics registry (atomic
// counters, gauges and fixed-bucket latency histograms), lightweight
// spans, a structured JSONL decision log, and exporters (Prometheus
// text format, JSON run reports, and an optional pprof/expvar debug
// server).
//
// Design contract — alloc-neutrality. Every hot-path operation
// (Counter.Add, Gauge.Set, Histogram.Observe, Span.End, the decision
// log's typed emit methods) is lock-free or amortized-alloc-free, and
// every instrument is nil-safe: a nil *Counter, *Gauge, *Histogram,
// *DecisionLog or *Sink turns the operation into a predictable branch
// and nothing else. Uninstrumented components therefore behave — in
// results, allocations and (to within a branch) time — exactly like
// they did before instrumentation existed. A nil *Sink is the
// canonical disabled sink.
//
// Design contract — determinism. Decision-log events carry only
// deterministic fields (sequence numbers, simulation time, candidate
// counts, verdicts, placements); wall-clock timings live exclusively in
// histograms. A fixed-seed run therefore replays its decision log
// byte-identically, while timing distributions remain observable
// through the metrics registry.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops), making disabled telemetry free.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64. Safe on a nil receiver.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(n int) { g.Set(float64(n)) }

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Span measures one timed section into a histogram. It is a value type:
// starting and ending a span allocates nothing, and a span over a nil
// histogram never reads the clock.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing into h. A nil histogram yields a no-op span.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End records the elapsed seconds. Safe to call on the zero Span.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(time.Since(s.start).Seconds())
	}
}

// Registry is a named collection of instruments. Registration
// (Counter/Gauge/Histogram) takes a mutex and is meant for startup;
// updates through the returned instruments are lock-free. A nil
// *Registry hands out nil instruments, so a disabled registry costs
// nothing at runtime.
type Registry struct {
	mu     sync.Mutex
	byName map[string]interface{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]interface{}{}}
}

// Counter returns the counter registered under name, creating it on
// first use. Registering the same name as a different instrument type
// panics: metric names are a startup-time contract.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, func() *Counter { return &Counter{name: name, help: help} })
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, func() *Gauge { return &Gauge{name: name, help: help} })
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (see NewHistogram).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return register(r, name, func() *Histogram { return newHistogram(name, help, bounds) })
}

// register returns the instrument of type T registered under name,
// creating it with mk on first use.
func register[T any](r *Registry, name string, mk func() T) T {
	var none T
	if r == nil {
		return none
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		t, ok := m.(T)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
		}
		return t
	}
	t := mk()
	r.byName[name] = t
	return t
}

// sortedNames returns the registered metric names in lexical order —
// the deterministic export order.
func (r *Registry) sortedNames() []string {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
