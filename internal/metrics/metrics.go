// Package metrics is the engine-wide metrics registry: counters, gauges,
// and mergeable log-linear histograms. Instruments are registered once at
// engine construction and updated lock-free on the query path; readers
// take a stable-ordered snapshot or a Prometheus text rendering at any
// time without pausing writers.
//
// Histogram.Merge is bucket-wise addition, so it is commutative and
// associative: a merged histogram does not depend on the order in which
// its parts were folded in.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative; negative deltas are ignored so
// a buggy caller cannot make a counter run backwards.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous value that can move in both directions.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the value by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Registry holds an engine's instruments. Registration is cheap and
// expected at construction time; lookups during snapshots take a
// read-lock only on the instrument lists, never on instrument values.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// checkName panics on a name collision anywhere in the registry.
// Duplicate registration is a programming error, not a runtime
// condition, and silently sharing an instrument would double-count.
func (r *Registry) checkName(name string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
}

// NewCounter registers and returns a counter. Panics if name is taken.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// NewGauge registers and returns a gauge. Panics if name is taken.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// NewHistogram registers and returns a histogram. Panics if name is
// taken.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	h := &Histogram{name: name, help: help}
	r.histograms[name] = h
	return h
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string
	Help  string
	Value int64
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string
	Help  string
	Value int64
}

// HistogramValue is one histogram's snapshot.
type HistogramValue struct {
	Name string
	Help string
	Hist HistSnapshot
}

// Snapshot is a point-in-time copy of every instrument, each section
// sorted by name. Instruments are read individually and lock-free, so a
// snapshot taken while writers run is internally consistent per
// instrument but not across instruments — the usual Prometheus contract.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot captures every registered instrument in stable (name) order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{c.name, c.help, c.Value()})
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{g.name, g.help, g.Value()})
	}
	for _, h := range r.histograms {
		s.Histograms = append(s.Histograms, HistogramValue{h.name, h.help, h.Snapshot()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
