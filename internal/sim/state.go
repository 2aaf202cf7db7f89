package sim

import (
	"fmt"
	"math"

	"ubscache/internal/bpu"
	"ubscache/internal/core"
	"ubscache/internal/fdip"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/trace"
	"ubscache/internal/workload"
)

// MachineState is the complete checkpointable image of a Machine: every
// layer's state struct composed into one value that round-trips through
// the deterministic snap codec. The contract is byte-level — snapshot
// at instruction N, restore into a fresh Machine built from the same
// Params/design/workload, run to completion, and the final stats are
// byte-identical to an uninterrupted run.
//
// The trace source is part of the state only when it is a bare
// *workload.Walker: Walker then holds the walker's image (its generator
// register, call stack and cursor), and Restore installs it directly, at
// a cost that does not grow with the snapshot's position. Every other
// source (mixes, file-backed traces, wrapped walkers) carries state the
// image cannot hold (the stdlib generator behind a mix's distributions,
// open file readers), so Walker is nil and Restore replays instead: the
// FTQ's EnqueuedTot counts exactly the successful Next calls, and Restore
// fast-forwards the freshly opened source by that many instructions
// (trace.Skip).
//
// Observer plumbing (the heartbeat schedule) is deliberately NOT part of
// the state. Heartbeats never touch simulated state; Restore recomputes
// the next beat cycle from the restored clock so a resumed run beats on
// the same cycle grid.
//
// The file-format version lives in the checkpoint header (package
// checkpoint), not here: MachineState's layout IS the format, and the
// header version is bumped whenever a layer's State type or the snap
// layout changes.
//
//ubs:state
type MachineState struct {
	RunState
	Core core.State
	FTQ  fdip.State
	BPU  bpu.State
	// Frontend holds the design's snap-encoded state struct; the bytes
	// are opaque here and only the same concrete frontend type decodes
	// them (icache.Checkpointable).
	Frontend  []byte
	DataCache *mem.DataCacheState
	Hierarchy mem.HierarchyState
	// Walker is the source's image, nil when the source is not a bare
	// *workload.Walker (see above).
	Walker *workload.State
}

// RunState is the Machine's own mutable state, the form the machine
// keeps it in: whether warmup has completed, and the storage-efficiency
// sample window — the retained samples (every EffStride-th of the
// EffTick sample ticks taken so far) and the cycle of the next sample.
type RunState struct {
	Warmed     bool
	EffSamples []float64
	EffStride  uint64
	EffTick    uint64
	NextSample uint64
}

// Snapshot copies the machine's complete mutable state into dst. The
// machine must be warmed (checkpoints are taken mid-measurement; the
// warmup phase is cheap to replay, and only once it completes do the
// counters cover the measured window alone). Snapshot never runs on the cycle
// hot path — callers invoke it between Advance calls — so it may
// allocate, though it reuses dst's backing storage across calls.
func (m *Machine) Snapshot(dst *MachineState) error {
	if !m.run.Warmed {
		return fmt.Errorf("sim: snapshot before warmup completed")
	}
	ck, ok := m.ic.(icache.Checkpointable)
	if !ok {
		return fmt.Errorf("sim: frontend %T is not checkpointable", m.ic)
	}
	samples := dst.EffSamples
	dst.RunState = m.run
	dst.EffSamples = append(samples[:0], m.run.EffSamples...)
	m.c.Snapshot(&dst.Core)
	m.ftq.Snapshot(&dst.FTQ)
	m.bp.Snapshot(&dst.BPU)
	fe, err := ck.SnapshotState()
	if err != nil {
		return err
	}
	dst.Frontend = fe
	if m.dc == nil {
		dst.DataCache = nil
	} else {
		if dst.DataCache == nil {
			dst.DataCache = &mem.DataCacheState{}
		}
		m.dc.Snapshot(dst.DataCache)
	}
	m.h.Snapshot(&dst.Hierarchy)
	if w, ok := m.src.(*workload.Walker); ok {
		if dst.Walker == nil {
			dst.Walker = &workload.State{}
		}
		w.Snapshot(dst.Walker)
	} else {
		dst.Walker = nil
	}
	return nil
}

// Restore installs a previously captured MachineState into a fresh
// Machine built from the same Params, design, and workload. The
// machine's trace source is restored from the snapshot's walker image
// or, without one, fast-forwarded to its replay cursor; every layer's
// state is copied into its pre-sized backings, and the observer (if any)
// is re-armed at the measure phase, so the next Advance continues
// exactly where the snapshot left off.
func (m *Machine) Restore(src *MachineState) error {
	if m.run.Warmed || m.c.Clock() != 0 {
		return fmt.Errorf("sim: restore target must be a fresh machine")
	}
	if !src.Warmed {
		return fmt.Errorf("sim: snapshot was taken before warmup completed")
	}
	ck, ok := m.ic.(icache.Checkpointable)
	if !ok {
		return fmt.Errorf("sim: frontend %T is not checkpointable", m.ic)
	}
	if (src.DataCache == nil) != (m.dc == nil) {
		return fmt.Errorf("sim: snapshot and params disagree on data-cache modelling")
	}
	if len(src.EffSamples) > effWindowCap || src.EffStride == 0 {
		return fmt.Errorf("sim: snapshot sample window holds %d samples at stride %d, want at most %d at stride >= 1", len(src.EffSamples), src.EffStride, effWindowCap)
	}
	// Position the fresh source on the instruction the FTQ would pull
	// next. The image decides how: a walker image is installed directly;
	// without one the source is replayed. EnqueuedTot counts exactly the
	// successful Next calls; a source that already ended (SourceDone) is
	// restored via the flag alone, so no extra Next is needed here.
	if src.Walker != nil {
		w, ok := m.src.(*workload.Walker)
		if !ok {
			return fmt.Errorf("sim: snapshot holds a walker image but the source is %T", m.src)
		}
		if src.Walker.Emitted != src.FTQ.EnqueuedTot {
			return fmt.Errorf("sim: walker image emitted %d instructions, the FTQ consumed %d", src.Walker.Emitted, src.FTQ.EnqueuedTot)
		}
		if err := w.Restore(src.Walker); err != nil {
			return err
		}
	} else if err := trace.Skip(m.src, src.FTQ.EnqueuedTot); err != nil {
		return err
	}
	if err := m.c.Restore(&src.Core); err != nil {
		return err
	}
	if err := m.ftq.Restore(&src.FTQ); err != nil {
		return err
	}
	if err := m.bp.Restore(&src.BPU); err != nil {
		return err
	}
	if err := ck.RestoreState(src.Frontend); err != nil {
		return err
	}
	if m.dc != nil {
		if err := m.dc.Restore(src.DataCache); err != nil {
			return err
		}
	}
	if err := m.h.Restore(&src.Hierarchy); err != nil {
		return err
	}
	if err := m.checkProgress(src); err != nil {
		return err
	}
	samples := m.run.EffSamples
	m.run = src.RunState
	m.run.EffSamples = append(samples[:0], src.EffSamples...)
	// Observer plumbing: re-enter the measure phase and recompute the
	// heartbeat schedule against the restored clock. Beats fire exactly
	// on multiples of the period, so the resumed run stays on the same
	// cycle grid as the uninterrupted one.
	m.st.startPhase("measure", m.p.Measure)
	if m.st != nil || m.cancellable {
		m.nextHB = (m.c.Cycles()/m.every + 1) * m.every
	} else {
		m.nextHB = 0
	}
	return nil
}

// eventHorizon bounds how far past the clock any pending event of a
// machine that ran from reset can lie. Each instruction in flight (ROB,
// decode queue, one fetch chunk) can wait on the one before it, and each
// wait is at most a miss to DRAM behind every other outstanding miss,
// plus the L1 and front-end penalties. The bound is loose on purpose: it
// only has to reject event times that no run produces.
func (m *Machine) eventHorizon() uint64 {
	cfg := m.c.Config()
	step := m.h.MissHorizon() + m.ic.Latency() + cfg.DecodeLat + cfg.RedirectLat + cfg.ResteerLat
	if m.dc != nil {
		step += m.dc.Lat
	}
	return uint64(cfg.ROBSize+cfg.DecodeQueue+cfg.FetchWidth) * step
}

// checkProgress rejects images that each layer's Restore accepts but
// that would stop the machine for good, so that an Advance without a
// context never returns: a runahead blocked on a mispredict that nothing
// will resolve, or an event (a fetch or redirect stall, an instruction's
// completion, a miss, a DRAM bank's busy time) beyond the event horizon.
// It runs once every layer has restored its part: the L1-I MSHR file is
// read from the restored frontend, whose image is opaque here.
func (m *Machine) checkProgress(src *MachineState) error {
	c, ftq := &src.Core, &src.FTQ
	queued, decoding := false, false
	for i := range ftq.Queue {
		queued = queued || ftq.Queue[i].Mispredict
	}
	for i := range c.Decode {
		decoding = decoding || c.Decode[i].Item.Mispredict
	}
	switch {
	case ftq.Blocked && !queued && !c.WaitMispredict:
		return fmt.Errorf("sim: snapshot FTQ is blocked on a mispredict that is neither queued nor awaited")
	case c.WaitMispredict && c.RedirectAt == 0 && !decoding:
		return fmt.Errorf("sim: snapshot core awaits a mispredict redirect with no mispredicted instruction to dispatch")
	case c.RedirectAt != 0 && !c.WaitMispredict:
		return fmt.Errorf("sim: snapshot core has a redirect at cycle %d but awaits none", c.RedirectAt)
	}
	h := m.eventHorizon()
	if c.Clock > math.MaxUint64-h {
		return fmt.Errorf("sim: snapshot clock %d leaves no room for its event horizon", c.Clock)
	}
	limit := c.Clock + h
	late := func(what string, at uint64) error {
		if at > limit {
			return fmt.Errorf("sim: snapshot %s at cycle %d, past the clock %d plus the event horizon %d", what, at, c.Clock, h)
		}
		return nil
	}
	if err := late("fetch stall", c.FetchBlocked); err != nil {
		return err
	}
	if err := late("redirect", c.RedirectAt); err != nil {
		return err
	}
	for i := range c.ROB {
		if err := late("ROB completion", c.ROB[i].Done); err != nil {
			return err
		}
	}
	for _, done := range c.DoneRing {
		if err := late("completion record", done); err != nil {
			return err
		}
	}
	for i := range c.Decode {
		if err := late("decode readiness", c.Decode[i].ReadyAt); err != nil {
			return err
		}
	}
	mshrs := []*mem.MSHRState{&src.Hierarchy.L2.MSHR, &src.Hierarchy.L3.MSHR}
	if src.DataCache != nil {
		mshrs = append(mshrs, &src.DataCache.MSHR)
	}
	for _, f := range mshrs {
		if err := late("miss completion", f.LastDone()); err != nil {
			return err
		}
	}
	if err := late("L1-I miss completion", m.ic.MSHRLastDone()); err != nil {
		return err
	}
	for _, busy := range src.Hierarchy.DRAM.Busy {
		if err := late("DRAM bank busy time", busy); err != nil {
			return err
		}
	}
	return nil
}
