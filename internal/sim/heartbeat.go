package sim

import (
	"ubscache/internal/bpu"
	"ubscache/internal/core"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/obs"
	"ubscache/internal/ubs"
)

// heartbeatFallback is the heartbeat period in cycles when neither
// Params.HeartbeatEvery nor Params.SampleInterval is set.
const heartbeatFallback = 100_000

// heartbeatEvery resolves the heartbeat period for p.
func heartbeatEvery(p Params) uint64 {
	if p.HeartbeatEvery > 0 {
		return p.HeartbeatEvery
	}
	if p.SampleInterval > 0 {
		return p.SampleInterval
	}
	return heartbeatFallback
}

// rollingIPCBounds bucket the per-heartbeat rolling IPC histogram.
var rollingIPCBounds = []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3}

// hbState drives one run's observer: it owns the metric registry, the
// reusable heartbeat buffer, and the phase-relative rolling-rate state.
// All methods are nil-receiver safe so the hot path can call them
// unconditionally on runs without an observer.
type hbState struct {
	ob  obs.Observer
	reg *obs.Registry

	c  *core.Core
	ic icache.Frontend
	bp *bpu.BPU
	u  *ubs.Cache          // non-nil when the frontend is a UBS cache
	oc icache.MSHROccupant // non-nil when the frontend reports occupancy

	workload, design string

	// Phase state.
	phase  string
	target uint64

	// Rolling-rate state (phase-relative, like every counter).
	prevCycles, prevInstr, prevMisses uint64

	hb    obs.Heartbeat
	seq   int
	ended bool

	// Registry instruments updated at each heartbeat.
	beatCount *obs.Counter
	progress  *obs.Gauge
	rolling   *obs.Gauge
	ipcHist   *obs.Histogram
}

// newHBState builds the observer state and registers every subsystem's
// stats as reflection-bridged metric sources. Sources are read only at
// heartbeat boundaries, on the simulation goroutine.
func newHBState(ob obs.Observer, workload, design string,
	c *core.Core, ic icache.Frontend, bp *bpu.BPU, dc *mem.DataCache, h *mem.Hierarchy) *hbState {
	reg := obs.NewRegistry()
	st := &hbState{
		ob: ob, reg: reg, c: c, ic: ic, bp: bp,
		workload: workload, design: design,
		beatCount: reg.Counter("heartbeats"),
		progress:  reg.Gauge("progress"),
		rolling:   reg.Gauge("rolling_ipc"),
		ipcHist:   reg.Histogram("rolling_ipc_hist", rollingIPCBounds),
	}
	if u, ok := ic.(*ubs.Cache); ok {
		st.u = u
	}
	if oc, ok := ic.(icache.MSHROccupant); ok {
		st.oc = oc
	}
	reg.RegisterSource("core", func() any { return c.Stats() })
	reg.RegisterSource("icache", func() any { return ic.Stats() })
	reg.RegisterSource("bpu", func() any { return bp.Stats() })
	if st.u != nil {
		reg.RegisterSource("ubs", func() any { return st.u.UBSStats() })
	}
	if dc != nil {
		reg.RegisterSource("l1d", func() any { return dc.C.Stats() })
		reg.RegisterSource("l1d_mshr", func() any { return dc.MSHR })
	}
	if h != nil {
		reg.RegisterSource("l2", func() any { return h.L2.Cache.Stats() })
		reg.RegisterSource("l2_mshr", func() any { return h.L2.MSHR })
		reg.RegisterSource("l3", func() any { return h.L3.Cache.Stats() })
		reg.RegisterSource("l3_mshr", func() any { return h.L3.MSHR })
		reg.RegisterSource("dram", func() any { return h.DRAM })
	}
	return st
}

// startPhase switches the heartbeat stream to a new phase with its
// instruction target.
func (st *hbState) startPhase(phase string, target uint64) {
	if st == nil {
		return
	}
	st.phase, st.target = phase, target
	st.prevCycles, st.prevInstr, st.prevMisses = 0, 0, 0
}

// fill recomputes the reusable heartbeat buffer from live state.
func (st *hbState) fill() {
	cs := st.c.Stats()
	is := st.ic.Stats()
	bs := st.bp.Stats()
	st.seq++
	st.hb = obs.Heartbeat{
		Workload: st.workload, Design: st.design, Phase: st.phase, Seq: st.seq,
		Cycles: cs.Cycles, Instructions: cs.Instructions, Target: st.target,
		IPC:  cs.IPC(),
		MPKI: is.MPKI(cs.Instructions),

		Fetches:         is.Fetches,
		Misses:          is.Misses,
		FullMisses:      is.ByKind[icache.FullMiss],
		MissingSubBlock: is.ByKind[icache.MissingSubBlock],
		Overruns:        is.ByKind[icache.Overrun],
		Underruns:       is.ByKind[icache.Underrun],

		MSHROccupancy:    -1,
		Efficiency:       -1,
		PredictorHitRate: -1,
		BranchMPKI:       bs.MPKI(cs.Instructions),
	}
	if dc := cs.Cycles - st.prevCycles; dc > 0 {
		st.hb.RollingIPC = float64(cs.Instructions-st.prevInstr) / float64(dc)
	}
	if di := cs.Instructions - st.prevInstr; di > 0 {
		st.hb.RollingMPKI = 1000 * float64(is.Misses-st.prevMisses) / float64(di)
	}
	st.prevCycles, st.prevInstr, st.prevMisses = cs.Cycles, cs.Instructions, is.Misses
	if st.oc != nil {
		st.hb.MSHROccupancy = st.oc.MSHRInFlight(st.c.Clock())
	}
	if eff, ok := st.ic.Efficiency(); ok {
		st.hb.Efficiency = eff
	}
	if st.u != nil {
		if us := st.u.UBSStats(); us.Hits > 0 {
			st.hb.PredictorHitRate = float64(us.PredictorHits) / float64(us.Hits)
		}
	}
}

// beat emits one heartbeat and updates the registry instruments.
func (st *hbState) beat() {
	if st == nil {
		return
	}
	st.fill()
	st.beatCount.Inc()
	st.progress.Set(st.hb.Progress())
	st.rolling.Set(st.hb.RollingIPC)
	st.ipcHist.Observe(st.hb.RollingIPC)
	st.ob.Heartbeat(&st.hb)
}

// finish delivers the final heartbeat and EndRun exactly once, passing err
// through for ergonomic use in return statements.
func (st *hbState) finish(err error) error {
	if st == nil || st.ended {
		return err
	}
	st.ended = true
	st.fill()
	st.hb.Phase = "final"
	st.ob.EndRun(&st.hb, err)
	return err
}
