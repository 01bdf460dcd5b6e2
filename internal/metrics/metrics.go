// Package metrics is the repository's unified observability layer: a
// dependency-free metrics registry rendered in one format, the Prometheus
// text exposition, wired from the MPI runtime up to the mapd service.
//
// Three metric kinds cover everything the paper's evaluation measures:
//
//   - Counter: a monotonically increasing integer (messages sent, cache
//     hits). Inc/Add are single atomic adds.
//   - Gauge: an integer that can go both ways (active worlds, queue depth).
//   - Histogram: exponential-bucket distribution with constant-time Observe
//     (recv-wait times, request latencies); a scraper derives quantiles from
//     the exposed buckets.
//
// Metrics belong to families; a family is either plain (one time series) or
// labeled ("Vec"), in which case With("key", "value", ...) resolves one
// child series per label combination. The registry's one lock guards
// registration and listing only; the per-sample hot paths (Inc, Add, Set,
// Observe) on a resolved handle touch no locks at all and allocate nothing —
// they are pure atomics, cheap enough to live inside the runtime's
// per-message delivery path.
//
// A package-level Default registry serves the process-wide instrumentation
// (mpi, collective, core, scotch); components that need isolated counters —
// one Service instance per test — create their own Registry and merge it
// with Default at exposition time (WritePrometheus accepts multiple
// registries).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the metric family type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. Safe for concurrent use: its one lock is taken only to
// register or list families, and With on an existing family takes only that
// family's own lock.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Default is the process-wide registry used by the package-level
// constructors and by every layer's built-in instrumentation.
var Default = NewRegistry()

// family is one named metric family with zero or more label keys.
type family struct {
	name  string
	help  string
	kind  Kind
	keys  []string // declared label keys, in declaration order
	hopts HistogramOpts
	mu    sync.RWMutex
	chld  map[string]metric // child key (joined label values) -> metric
	lbls  map[string][]string
}

// metric is the common interface of child series.
type metric interface{}

// lookup returns the family, creating it when absent. Kind and label-key
// mismatches against an existing family panic: they are programming errors
// (two call sites disagreeing about one name), not runtime conditions.
func (r *Registry) lookup(name, help string, kind Kind, keys []string, hopts HistogramOpts) *family {
	if name == "" {
		panic("metrics: empty family name")
	}
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.fams[name]
		if !ok {
			f = &family{
				name:  name,
				help:  help,
				kind:  kind,
				keys:  append([]string(nil), keys...),
				hopts: hopts,
				chld:  make(map[string]metric),
				lbls:  make(map[string][]string),
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: family %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	if len(f.keys) != len(keys) {
		panic(fmt.Sprintf("metrics: family %q re-registered with %d label keys (was %d)", name, len(keys), len(f.keys)))
	}
	for i := range keys {
		if f.keys[i] != keys[i] {
			panic(fmt.Sprintf("metrics: family %q label key %d is %q (was %q)", name, i, keys[i], f.keys[i]))
		}
	}
	return f
}

// child resolves (creating when absent) the series for the given label
// values, which must be in declared key order.
func (f *family) child(values []string, mk func() metric) metric {
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	m, ok := f.chld[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.chld[key]; ok {
		return m
	}
	m = mk()
	f.chld[key] = m
	f.lbls[key] = append([]string(nil), values...)
	return m
}

// resolve reorders the kv pairs of a With call into declared key order.
func (f *family) resolve(kv []string) []string {
	if len(kv) != 2*len(f.keys) {
		panic(fmt.Sprintf("metrics: family %q takes %d label pairs, got %d values", f.name, len(f.keys), len(kv)))
	}
	values := make([]string, len(f.keys))
	for i, k := range f.keys {
		found := false
		for j := 0; j < len(kv); j += 2 {
			if kv[j] == k {
				values[i] = kv[j+1]
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("metrics: family %q missing label %q in With call", f.name, k))
		}
	}
	return values
}

// --- Counter ---

// Counter is a monotonically increasing integer. Inc and Add are single
// atomic operations: lock-free and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter contract to hold; this
// is not checked on the hot path).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter returns the (unlabeled) counter family's single series, creating
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, KindCounter, nil, HistogramOpts{})
	return f.child(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given label keys.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, KindCounter, keys, HistogramOpts{})}
}

// With resolves the series for the given "key", "value" pairs (any order).
// Resolution takes a shared lock and may allocate; hot loops should resolve
// once and retain the *Counter.
func (v *CounterVec) With(kv ...string) *Counter {
	values := v.f.resolve(kv)
	return v.f.child(values, func() metric { return &Counter{} }).(*Counter)
}

// --- Gauge ---

// Gauge is an integer that can rise and fall. All operations are single
// atomics: lock-free and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge returns the (unlabeled) gauge family's single series.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, KindGauge, nil, HistogramOpts{})
	return f.child(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given label keys.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, KindGauge, keys, HistogramOpts{})}
}

// With resolves the series for the given "key", "value" pairs.
func (v *GaugeVec) With(kv ...string) *Gauge {
	values := v.f.resolve(kv)
	return v.f.child(values, func() metric { return &Gauge{} }).(*Gauge)
}

// --- Histogram ---

// HistogramOpts describes an exponential bucket layout: Count finite
// buckets with upper bounds Start, Start*Factor, Start*Factor², …, plus an
// implicit +Inf overflow bucket.
type HistogramOpts struct {
	Start  float64 // upper bound of the first bucket (> 0)
	Factor float64 // bucket growth factor (> 1)
	Count  int     // number of finite buckets (>= 1)
}

// DurationOpts is the default layout for duration-in-seconds histograms:
// 30 power-of-two buckets from 1µs to ~537s. Power-of-two growth keeps the
// relative quantile error under a factor of two everywhere while spanning
// nine decades in one cache line's worth of counters.
var DurationOpts = HistogramOpts{Start: 1e-6, Factor: 2, Count: 30}

func (o HistogramOpts) withDefaults() HistogramOpts {
	if o.Start <= 0 || o.Factor <= 1 || o.Count < 1 {
		return DurationOpts
	}
	return o
}

// Histogram is an exponential-bucket distribution. Observe is constant
// time: the bucket index is computed with one logarithm, not a scan, and
// every update is an atomic — no locks, no allocations.
type Histogram struct {
	bounds    []float64 // finite upper bounds, ascending
	start     float64
	logFactor float64
	counts    []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count     atomic.Uint64
	sumBits   atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(o HistogramOpts) *Histogram {
	o = o.withDefaults()
	h := &Histogram{
		start:     o.Start,
		logFactor: math.Log(o.Factor),
		bounds:    make([]float64, o.Count),
		counts:    make([]atomic.Uint64, o.Count+1),
	}
	b := o.Start
	for i := range h.bounds {
		h.bounds[i] = b
		b *= o.Factor
	}
	return h
}

// bucketIndex maps a value to its bucket in O(1): one log, then at most one
// step of floating-point boundary correction.
func (h *Histogram) bucketIndex(v float64) int {
	if v <= h.bounds[0] {
		return 0
	}
	last := len(h.bounds) - 1
	if v > h.bounds[last] {
		return last + 1 // +Inf bucket
	}
	i := int(math.Ceil(math.Log(v/h.start) / h.logFactor))
	if i < 0 {
		i = 0
	} else if i > last {
		i = last
	}
	// One-step correction for boundary rounding in the log.
	if i > 0 && v <= h.bounds[i-1] {
		i--
	} else if v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Histogram returns the (unlabeled) histogram family's single series. A
// zero opts value selects DurationOpts. The layout is fixed by the first
// registration of the family.
func (r *Registry) Histogram(name, help string, opts HistogramOpts) *Histogram {
	f := r.lookup(name, help, KindHistogram, nil, opts.withDefaults())
	return f.child(nil, func() metric { return newHistogram(f.hopts) }).(*Histogram)
}

// HistogramVec is a labeled histogram family; all children share one bucket
// layout.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given label
// keys. A zero opts value selects DurationOpts.
func (r *Registry) HistogramVec(name, help string, opts HistogramOpts, keys ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, KindHistogram, keys, opts.withDefaults())}
}

// With resolves the series for the given "key", "value" pairs.
func (v *HistogramVec) With(kv ...string) *Histogram {
	values := v.f.resolve(kv)
	return v.f.child(values, func() metric { return newHistogram(v.f.hopts) }).(*Histogram)
}

// --- Default-registry conveniences ---

// NewCounter returns the named counter from the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewCounterVec returns the named labeled counter family from Default.
func NewCounterVec(name, help string, keys ...string) *CounterVec {
	return Default.CounterVec(name, help, keys...)
}

// NewGauge returns the named gauge from the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewGaugeVec returns the named labeled gauge family from Default.
func NewGaugeVec(name, help string, keys ...string) *GaugeVec {
	return Default.GaugeVec(name, help, keys...)
}

// NewHistogram returns the named histogram from the Default registry.
func NewHistogram(name, help string, opts HistogramOpts) *Histogram {
	return Default.Histogram(name, help, opts)
}

// NewHistogramVec returns the named labeled histogram family from Default.
func NewHistogramVec(name, help string, opts HistogramOpts, keys ...string) *HistogramVec {
	return Default.HistogramVec(name, help, opts, keys...)
}

// families returns every family in the registry, sorted by name — the
// stable order the exposition relies on.
func (r *Registry) families() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// children returns the family's child series with their label values,
// sorted by joined label value — stable exposition order.
func (f *family) children() (keys []string, byKey map[string]metric, labels map[string][]string) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	byKey = make(map[string]metric, len(f.chld))
	labels = make(map[string][]string, len(f.lbls))
	for k, m := range f.chld {
		byKey[k] = m
		keys = append(keys, k)
	}
	for k, v := range f.lbls {
		labels[k] = append([]string(nil), v...)
	}
	sort.Strings(keys)
	return keys, byKey, labels
}
