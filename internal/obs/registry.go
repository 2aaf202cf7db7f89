// Package obs is the simulator's observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges, histograms with
// atomic snapshot/delta support) plus a pluggable Observer event interface
// that package sim drives with periodic run heartbeats.
//
// The design splits metrics into two classes:
//
//   - Instruments (Counter, Gauge, Histogram) are created through a
//     Registry and updated with lock-free atomics; they are safe to write
//     and snapshot from any goroutine.
//   - Sources bridge pre-existing Stats structs (icache.Stats, bpu.Stats,
//     core.Stats, ubs.Stats...) into the registry by reflection. A source
//     is read only when Snapshot is called, and snapshots of sources must
//     be taken from the goroutine that owns the underlying counters —
//     package sim does so at heartbeat boundaries, and exporters such as
//     the HTTP server retain the last heartbeat's snapshot instead of
//     reading live state.
//
// A nil Observer costs the simulation hot path nothing: the per-cycle loop
// performs a single integer comparison and never allocates (pinned by
// sim.TestNilObserverAllocFree, which CI's alloc gate runs).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind distinguishes monotonic counters from point-in-time gauges; Delta
// subtracts counters and keeps the latest gauge values.
type Kind uint8

const (
	// KindCounter marks a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge marks a point-in-time value.
	KindGauge
)

// Counter is a monotonically increasing metric. The zero value of its
// operations is lock-free; Counters are created via Registry.Counter.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time float metric with atomic load/store.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with atomic observation counts.
// Bounds are upper bucket edges in increasing order; an implicit +Inf
// bucket catches the tail.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is one histogram's state inside a Snapshot. Counts are
// per-bucket (not cumulative) and parallel to Bounds plus a final +Inf
// bucket.
type HistSnapshot struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Sample is one scalar metric value inside a Snapshot.
type Sample struct {
	Name  string  `json:"name"`
	Kind  Kind    `json:"kind"`
	Value float64 `json:"value"`
}

// Snapshot is a consistent-enough point-in-time read of a Registry:
// instruments are read atomically, sources are read via their getters.
// Samples are sorted by name.
type Snapshot struct {
	Samples []Sample       `json:"samples"`
	Hists   []HistSnapshot `json:"histograms,omitempty"`
}

// Get returns the sample named name.
func (s Snapshot) Get(name string) (float64, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Name >= name })
	if i < len(s.Samples) && s.Samples[i].Name == name {
		return s.Samples[i].Value, true
	}
	return 0, false
}

// Map returns the scalar samples as a name -> value map.
func (s Snapshot) Map() map[string]float64 {
	m := make(map[string]float64, len(s.Samples))
	for _, sm := range s.Samples {
		m[sm.Name] = sm.Value
	}
	return m
}

// Delta returns s minus before: counter samples and histogram bucket
// counts are subtracted pairwise by name (a name absent from before is
// kept as-is), gauge samples keep their s values.
func (s Snapshot) Delta(before Snapshot) Snapshot {
	prev := make(map[string]float64, len(before.Samples))
	for _, sm := range before.Samples {
		if sm.Kind == KindCounter {
			prev[sm.Name] = sm.Value
		}
	}
	out := Snapshot{Samples: make([]Sample, len(s.Samples))}
	copy(out.Samples, s.Samples)
	for i := range out.Samples {
		if out.Samples[i].Kind == KindCounter {
			out.Samples[i].Value -= prev[out.Samples[i].Name]
		}
	}
	prevH := make(map[string]HistSnapshot, len(before.Hists))
	for _, h := range before.Hists {
		prevH[h.Name] = h
	}
	for _, h := range s.Hists {
		oh := HistSnapshot{
			Name: h.Name, Bounds: h.Bounds, Count: h.Count, Sum: h.Sum,
			Counts: append([]uint64(nil), h.Counts...),
		}
		if p, ok := prevH[h.Name]; ok && len(p.Counts) == len(oh.Counts) {
			for i := range oh.Counts {
				oh.Counts[i] -= p.Counts[i]
			}
			oh.Count -= p.Count
			oh.Sum -= p.Sum
		}
		out.Hists = append(out.Hists, oh)
	}
	return out
}

// source is one reflection-bridged stats getter.
type source struct {
	prefix string
	get    func() any
}

// Registry holds a run's metrics. Instrument operations are lock-free;
// registration and Snapshot take the registry lock.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	order    []string // instrument names in registration order
	sources  []source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter named name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge named name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the histogram named name, creating it with the given
// upper bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// RegisterSource bridges a stats struct into the registry: get is invoked
// at every Snapshot and its result's exported numeric fields (recursing
// through nested and embedded structs, arrays and slices) become counter
// samples named prefix_field_name. Snapshots touching sources must run on
// the goroutine that owns the underlying counters.
func (r *Registry) RegisterSource(prefix string, get func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, source{prefix: prefix, get: get})
}

// Snapshot reads every instrument and source into a sorted Snapshot.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	for _, name := range r.order {
		if c, ok := r.counters[name]; ok {
			s.Samples = append(s.Samples, Sample{Name: name, Kind: KindCounter, Value: float64(c.Value())})
		} else if g, ok := r.gauges[name]; ok {
			s.Samples = append(s.Samples, Sample{Name: name, Kind: KindGauge, Value: g.Value()})
		}
	}
	for _, src := range r.sources {
		s.Samples = appendSourceSamples(s.Samples, src.prefix, src.get())
	}
	sort.Slice(s.Samples, func(i, j int) bool { return s.Samples[i].Name < s.Samples[j].Name })
	for _, h := range r.hists {
		hs := HistSnapshot{
			Name:   h.name,
			Bounds: h.bounds,
			Counts: make([]uint64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Hists = append(s.Hists, hs)
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}
