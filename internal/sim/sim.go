// Package sim composes the full modelled system — workload walker, BPU,
// FDIP front end, an instruction-cache frontend under test, the L1-D and
// the shared hierarchy, and the out-of-order core — and runs
// warmup+measurement simulations (Methodology §V).
package sim

import (
	"context"
	"fmt"

	"ubscache/internal/bpu"
	"ubscache/internal/core"
	"ubscache/internal/fdip"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/obs"
	"ubscache/internal/trace"
	"ubscache/internal/ubs"
	"ubscache/internal/workload"
)

// Params bundles the system configuration. Zero-valued sections take the
// Table I defaults.
type Params struct {
	Core      core.Config
	Hierarchy mem.HierarchyConfig
	L1D       mem.DataCacheConfig
	BPU       bpu.Config
	// DataCache enables L1-D/backend memory modelling.
	DataCache bool
	// Warmup and Measure are instruction counts (§V: 50M+50M; scaled-down
	// defaults are applied by DefaultParams).
	Warmup  uint64
	Measure uint64
	// SampleInterval is the storage-efficiency sampling period in cycles
	// (§III: 100K cycles). 0 disables sampling.
	SampleInterval uint64

	// Observer receives run lifecycle events and periodic heartbeat
	// snapshots (see internal/obs). nil disables observability entirely:
	// the measurement loop then costs one integer comparison per cycle and
	// zero allocations (pinned by TestNilObserverAllocFree). Observers
	// never affect simulation results, so the field is excluded from JSON
	// encodings and therefore from the runner's content keys.
	Observer obs.Observer `json:"-"`
	// HeartbeatEvery is the heartbeat (and context-cancellation check)
	// period in cycles. 0 falls back to SampleInterval, then to 100K
	// cycles. Like Observer, it cannot change results and is excluded
	// from JSON encodings.
	HeartbeatEvery uint64 `json:"-"`
}

// DefaultParams returns Table I with the scaled-down run lengths used by
// the sweep harness (see DESIGN.md §3).
func DefaultParams() Params {
	return Params{
		Core:           core.DefaultConfig(),
		Hierarchy:      mem.DefaultHierarchyConfig(),
		L1D:            mem.DefaultDataCacheConfig(),
		DataCache:      true,
		Warmup:         1_000_000,
		Measure:        4_000_000,
		SampleInterval: 100_000,
	}
}

// FrontendFactory builds the instruction-cache design under test.
type FrontendFactory func(h *mem.Hierarchy) (icache.Frontend, error)

// ModelEpoch identifies the simulator's behaviour. Bump it in any change
// that alters some Result for some input (params, workload, design):
// result caches fold it into their content keys, so results computed
// under another epoch are never served.
const ModelEpoch = 1

// Result is one simulation's outcome.
type Result struct {
	Workload string
	Design   string
	Core     core.Stats
	ICache   icache.Stats
	BPU      bpu.Stats
	// EffSamples are the periodic storage-efficiency samples (Figures 2/7).
	// The window is bounded at effWindowCap samples: very long runs keep
	// every 2^k-th sample (k grows as needed), preserving full-run coverage
	// at a fixed memory footprint.
	EffSamples []float64
	// UBS carries the extended counters when the design is a UBS cache.
	UBS *ubs.Stats
}

// IPC returns the measured IPC.
func (r Result) IPC() float64 { return r.Core.IPC() }

// MPKI returns the L1-I demand MPKI.
func (r Result) MPKI() float64 { return r.ICache.MPKI(r.Core.Instructions) }

// StallCycles returns the icache-attributed front-end stall cycles.
func (r Result) StallCycles() uint64 { return r.Core.Stalls[core.StallICache] }

// Run simulates workload wcfg on the design built by factory.
func Run(p Params, wcfg workload.Config, design string, factory FrontendFactory) (Result, error) {
	return RunContext(context.Background(), p, wcfg, design, factory)
}

// RunContext is Run honouring ctx: cancellation is checked at every
// heartbeat interval (HeartbeatEvery cycles, falling back to
// SampleInterval) during both warmup and measurement, and an interrupted
// run returns ctx.Err() after notifying the observer.
func RunContext(ctx context.Context, p Params, wcfg workload.Config, design string, factory FrontendFactory) (Result, error) {
	if p.Core.FetchWidth == 0 {
		p.Core = core.DefaultConfig()
	}
	if p.Hierarchy.BlockSize == 0 {
		p.Hierarchy = mem.DefaultHierarchyConfig()
	}
	w, err := workload.New(wcfg)
	if err != nil {
		return Result{}, err
	}
	return RunSourceContext(ctx, p, w, wcfg.Name, design, factory)
}

// RunSource simulates an arbitrary trace source.
func RunSource(p Params, src trace.Source, workloadName, design string, factory FrontendFactory) (Result, error) {
	return RunSourceContext(context.Background(), p, src, workloadName, design, factory)
}

// RunSourceContext is RunSource honouring ctx (see RunContext).
func RunSourceContext(ctx context.Context, p Params, src trace.Source, workloadName, design string, factory FrontendFactory) (Result, error) {
	m, err := NewMachine(ctx, p, src, workloadName, design, factory)
	if err != nil {
		return Result{}, err
	}
	if err := m.Warmup(); err != nil {
		return Result{}, err
	}
	if err := m.Advance(p.Measure); err != nil {
		return Result{}, err
	}
	return m.Finish(), nil
}

// Machine is a fully assembled simulation that can be driven
// incrementally: construct with NewMachine, call Warmup once, Advance as
// many times as desired, then Finish for the Result. RunSourceContext is
// exactly that sequence; separate steps allow interleaved inspection,
// cycle-bounded embedding, and steady-state benchmarking without
// per-iteration construction cost.
type Machine struct {
	p           Params
	ctx         context.Context
	cancellable bool
	every       uint64 // heartbeat period in cycles

	workload, design string

	// src is the trace source feeding the FTQ, retained for Snapshot and
	// RestoreEncoded: a walker's image is captured and installed, any other
	// source is replayed (see MachineState).
	src trace.Source

	h   *mem.Hierarchy
	ic  icache.Frontend
	dc  *mem.DataCache
	bp  *bpu.BPU
	ftq *fdip.FTQ
	c   *core.Core
	st  *hbState // nil when no observer is configured

	run    RunState
	nextHB uint64 // 0 disables the per-cycle heartbeat branch
}

// effWindowCap bounds the storage-efficiency sample window. The backing
// array is allocated once at construction; when a run outgrows it, the
// window decimates in place (keeping every other retained sample) and
// doubles its sampling stride, so arbitrarily long runs — billion-
// instruction sweeps, long-lived ubsd jobs — hold at most this many
// samples while still spanning the whole measured region.
const effWindowCap = 4096

// NewMachine assembles the modelled system for one run. The observer (if
// any) receives BeginRun before NewMachine returns.
func NewMachine(ctx context.Context, p Params, src trace.Source, workloadName, design string, factory FrontendFactory) (*Machine, error) {
	h, err := mem.NewHierarchy(p.Hierarchy)
	if err != nil {
		return nil, err
	}
	ic, err := factory(h)
	if err != nil {
		return nil, err
	}
	var dc *mem.DataCache
	if p.DataCache {
		dc, err = mem.NewDataCache(p.L1D, h)
		if err != nil {
			return nil, err
		}
	}
	bp := bpu.New(p.BPU)
	ftq := fdip.New(p.Core.FTQ, src, bp, ic)
	c := core.New(p.Core, ftq, ic, dc)

	m := &Machine{
		p: p, ctx: ctx, cancellable: ctx.Done() != nil,
		every:    heartbeatEvery(p),
		workload: workloadName, design: design,
		src: src,
		h:   h, ic: ic, dc: dc, bp: bp, ftq: ftq, c: c,
		run: RunState{EffStride: 1},
	}
	if p.SampleInterval > 0 {
		m.run.EffSamples = make([]float64, 0, effWindowCap)
	}
	if p.Observer != nil {
		m.st = newHBState(p.Observer, workloadName, design, c, ic, bp, dc, h)
		p.Observer.BeginRun(obs.RunInfo{
			Workload: workloadName, Design: design,
			Warmup: p.Warmup, Measure: p.Measure, HeartbeatEvery: m.every,
		}, m.st.reg)
	}
	return m, nil
}

// Core exposes the out-of-order core (read-only inspection).
func (m *Machine) Core() *core.Core { return m.c }

// Frontend exposes the instruction-cache design under test.
func (m *Machine) Frontend() icache.Frontend { return m.ic }

// Warmup runs the configured warmup phase, zeroes the core, frontend,
// and BPU counters, and arms measurement. It is idempotent; Advance
// calls it automatically if needed.
func (m *Machine) Warmup() error {
	if m.run.Warmed {
		return nil
	}
	m.st.startPhase("warmup", m.p.Warmup)
	if m.p.Warmup > 0 {
		if m.st == nil && !m.cancellable {
			// Fast path: no heartbeats, no cancellation windows.
			if !m.c.Run(m.p.Warmup) {
				return m.traceEnded("warmup")
			}
		} else {
			next := m.every
			for m.c.Instructions() < m.p.Warmup {
				if !m.c.RunUntil(m.p.Warmup, next) {
					return m.traceEnded("warmup")
				}
				if m.c.Cycles() >= next {
					next += m.every
					m.st.beat()
					if m.cancellable {
						if err := m.ctx.Err(); err != nil {
							return m.st.finish(err)
						}
					}
				}
			}
		}
	}
	// The warmup boundary: every layer that reaches Result zeroes its
	// counters here, so Finish and the heartbeats read them as they are.
	m.c.ResetStats()
	m.ic.ResetStats()
	m.bp.ResetStats()
	m.st.startPhase("measure", m.p.Measure)
	m.run.NextSample = m.p.SampleInterval
	if m.st != nil || m.cancellable {
		m.nextHB = m.every
	}
	m.run.Warmed = true
	return nil
}

// Advance runs n more measured instructions, taking storage-efficiency
// samples every SampleInterval cycles and emitting heartbeats (and
// checking cancellation) every heartbeat interval.
func (m *Machine) Advance(n uint64) error {
	if err := m.Warmup(); err != nil {
		return err
	}
	target := m.c.Instructions() + n
	for m.c.Instructions() < target {
		m.c.Cycle()
		if m.p.SampleInterval > 0 {
			if cyc := m.c.Cycles(); cyc >= m.run.NextSample {
				if eff, ok := m.ic.Efficiency(); ok {
					m.recordEff(eff)
				}
				m.run.NextSample += m.p.SampleInterval
			}
		}
		if m.nextHB != 0 {
			if cyc := m.c.Cycles(); cyc >= m.nextHB {
				m.nextHB += m.every
				m.st.beat()
				if m.cancellable {
					if err := m.ctx.Err(); err != nil {
						return m.st.finish(err)
					}
				}
			}
		}
		if m.ftq.SourceDone() && m.ftq.Len() == 0 {
			return m.traceEnded("measurement")
		}
	}
	return nil
}

// recordEff adds one storage-efficiency sample to the bounded window.
// Retained sample ticks are always exactly the multiples of EffStride, so
// the window stays evenly spaced over the whole run; the decimation is
// deterministic (no RNG, no clock) and reuses the window's pre-sized
// backing array, so sampling allocates nothing after construction.
func (m *Machine) recordEff(eff float64) {
	tick := m.run.EffTick
	m.run.EffTick++
	if tick%m.run.EffStride != 0 {
		return
	}
	if len(m.run.EffSamples) == effWindowCap {
		// Full: keep every other retained sample and double the stride.
		for i := 0; i < effWindowCap/2; i++ {
			m.run.EffSamples[i] = m.run.EffSamples[2*i]
		}
		m.run.EffSamples = m.run.EffSamples[:effWindowCap/2]
		m.run.EffStride *= 2
		if tick%m.run.EffStride != 0 {
			return
		}
	}
	m.run.EffSamples = append(m.run.EffSamples, eff)
}

// traceEnded reports premature trace exhaustion through the observer.
func (m *Machine) traceEnded(phase string) error {
	return m.st.finish(fmt.Errorf("sim: trace ended during %s of %s", phase, m.workload))
}

// Finish assembles the measured Result and delivers the observer's final
// heartbeat and EndRun (once). The machine stays inspectable afterwards.
func (m *Machine) Finish() Result {
	res := Result{Workload: m.workload, Design: m.design}
	res.Core = m.c.Stats()
	res.ICache = m.ic.Stats()
	res.BPU = m.bp.Stats()
	res.EffSamples = m.run.EffSamples
	if u, ok := m.ic.(*ubs.Cache); ok {
		st := u.UBSStats()
		res.UBS = &st
	}
	m.st.finish(nil)
	return res
}
