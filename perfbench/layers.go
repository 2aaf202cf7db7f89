package main

import (
	"fmt"
	"math"
	"time"

	"ubscache/internal/bpu"
	"ubscache/internal/cache"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/sim"
	"ubscache/internal/trace"
)

// The layers are measured from outside the simulator. tracedSource wraps
// the trace.Source handed to sim.NewMachine and tracedFrontend wraps what
// the design's factory builds; both time calls as they happen. Layers
// the benchmark cannot wrap (the BPU inside the FTQ, the hierarchy
// behind the frontends, the L1-D inside the core) are measured by
// replaying call streams the wrappers record into a fresh instance of
// the layer alone.

// streams holds call streams recorded at the layer boundaries of a
// traced run.
type streams struct {
	branches []branchRec
	loads    []loadRec
	blocks   []blockReq
}

// branchRec is the part of a branch instruction bpu.PredictAndTrain reads.
type branchRec struct {
	pc, target uint64
	size       uint8
	class      trace.Class
	taken      bool
}

// loadRec is one load: its PC, its address and its position in the
// instruction stream.
type loadRec struct{ pc, addr, seq uint64 }

// blockReq is one L1-I demand miss the frontend issued.
type blockReq struct{ addr, now uint64 }

// tracedSource times every Next call of the source it wraps, counts the
// branches and loads it hands out and, when recording, keeps what the
// BPU and L1-D replays need.
type tracedSource struct {
	src             trace.Source
	calls           uint64
	ns              time.Duration
	branches, loads uint64
	rec             *streams
}

func (s *tracedSource) Next() (trace.Instr, bool) {
	t0 := time.Now()
	in, ok := s.src.Next()
	s.ns += time.Since(t0)
	if !ok {
		return in, false
	}
	s.calls++
	switch {
	case in.Class.IsBranch():
		s.branches++
		if s.rec != nil {
			s.rec.branches = append(s.rec.branches, branchRec{in.PC, in.Target, in.Size, in.Class, in.Taken})
		}
	case in.Class == trace.ClassLoad:
		s.loads++
		if s.rec != nil {
			s.rec.loads = append(s.rec.loads, loadRec{in.PC, in.MemAddr, s.calls})
		}
	}
	return in, true
}

// tracedFrontend times every Fetch and Prefetch call of the frontend it
// wraps. It forwards the optional frontend extensions, so a traced
// machine still checkpoints and reports MSHR occupancy.
type tracedFrontend struct {
	icache.Frontend
	fetches, hits, missesIssued uint64
	hitNs, missNs               time.Duration
	prefetches                  uint64
	prefNs                      time.Duration
	rec                         *streams
}

func (f *tracedFrontend) Fetch(addr uint64, size int, now uint64) icache.Result {
	t0 := time.Now()
	r := f.Frontend.Fetch(addr, size, now)
	d := time.Since(t0)
	f.fetches++
	if r.Kind == icache.Hit {
		f.hits++
		f.hitNs += d
		return r
	}
	f.missNs += d
	if r.Issued {
		f.missesIssued++
		if f.rec != nil {
			f.rec.blocks = append(f.rec.blocks, blockReq{addr &^ 63, now})
		}
	}
	return r
}

func (f *tracedFrontend) Prefetch(addr uint64, size int, now uint64) {
	t0 := time.Now()
	f.Frontend.Prefetch(addr, size, now)
	f.prefNs += time.Since(t0)
	f.prefetches++
}

// SnapshotState implements icache.Checkpointable.
func (f *tracedFrontend) SnapshotState() ([]byte, error) {
	ck, ok := f.Frontend.(icache.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("perfbench: frontend %T is not checkpointable", f.Frontend)
	}
	return ck.SnapshotState()
}

// RestoreState implements icache.Checkpointable.
func (f *tracedFrontend) RestoreState(data []byte) error {
	ck, ok := f.Frontend.(icache.Checkpointable)
	if !ok {
		return fmt.Errorf("perfbench: frontend %T is not checkpointable", f.Frontend)
	}
	return ck.RestoreState(data)
}

// MSHRInFlight implements icache.MSHROccupant.
func (f *tracedFrontend) MSHRInFlight(now uint64) int {
	if o, ok := f.Frontend.(icache.MSHROccupant); ok {
		return o.MSHRInFlight(now)
	}
	return -1
}

// runLayers is what the wrappers saw during one traced run, warmup and
// measurement both. Times are in ns, with the timer's own cost taken
// out of each call.
type runLayers struct {
	nextCalls, branches, loads  uint64
	nextNs                      float64
	fetches, hits, missesIssued uint64
	hitNs, missNs               float64
	prefetches                  uint64
	prefNs                      float64
	rec                         *streams
}

func layersOf(s *tracedSource, f *tracedFrontend, timerNs float64) *runLayers {
	net := func(d time.Duration, calls uint64) float64 {
		return math.Max(0, float64(d)-timerNs*float64(calls))
	}
	return &runLayers{
		nextCalls: s.calls, branches: s.branches, loads: s.loads,
		nextNs:  net(s.ns, s.calls),
		fetches: f.fetches, hits: f.hits, missesIssued: f.missesIssued,
		hitNs:      net(f.hitNs, f.hits),
		missNs:     net(f.missNs, f.fetches-f.hits),
		prefetches: f.prefetches,
		prefNs:     net(f.prefNs, f.prefetches),
		rec:        s.rec,
	}
}

// timed is the number of wrapped calls, each of which paid for two
// clock reads.
func (l *runLayers) timed() uint64 { return l.nextCalls + l.fetches + l.prefetches }

// calibrateTimer returns what timing an empty call measures, so the
// wrappers can report the wrapped call alone.
func calibrateTimer() float64 {
	xs := make([]float64, 4001)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return median(xs)
}

// replayBPU feeds recorded branches, in trace order, to a fresh BPU:
// exactly the calls FTQ.Fill makes. It returns the time taken and the
// BPU's final counters.
func replayBPU(cfg bpu.Config, brs []branchRec) (time.Duration, bpu.Stats) {
	bp := bpu.New(cfg)
	t0 := time.Now()
	for _, r := range brs {
		in := trace.Instr{PC: r.pc, Target: r.target, Size: r.size, Class: r.class, Taken: r.taken}
		bp.PredictAndTrain(&in)
	}
	return time.Since(t0), bp.Stats()
}

// replayLoads issues recorded loads to a fresh L1-D over a fresh
// hierarchy, one instruction per cycle. A load refused for MSHR pressure
// retries on the next cycle, as the core's dispatch does; each try is a
// call.
func replayLoads(p sim.Params, loads []loadRec) (calls uint64, d time.Duration, err error) {
	h, err := mem.NewHierarchy(p.Hierarchy)
	if err != nil {
		return 0, 0, err
	}
	dc, err := mem.NewDataCache(p.L1D, h)
	if err != nil {
		return 0, 0, err
	}
	var now uint64
	t0 := time.Now()
	for _, l := range loads {
		now = max(now, l.seq)
		for {
			calls++
			if _, ok := dc.Load(l.addr, now, cache.AccessContext{PC: l.pc, Cycle: now}); ok {
				break
			}
			now++
		}
	}
	return calls, time.Since(t0), nil
}

// replayBlocks services recorded L1-I misses from a fresh hierarchy at
// their recorded cycles; a miss refused for MSHR pressure retries on the
// next cycle.
func replayBlocks(p sim.Params, reqs []blockReq) (calls uint64, d time.Duration, err error) {
	h, err := mem.NewHierarchy(p.Hierarchy)
	if err != nil {
		return 0, 0, err
	}
	var now uint64
	t0 := time.Now()
	for _, r := range reqs {
		now = max(now, r.now)
		for {
			calls++
			if _, ok := h.FetchBlock(r.addr, now, cache.AccessContext{Cycle: now}); ok {
				break
			}
			now++
		}
	}
	return calls, time.Since(t0), nil
}

// keep retains the recorded streams of r when they are the first of
// their kind: one branch and load stream for the process (the
// instruction stream does not depend on the design) and one miss stream
// per design kind. The rest are dropped, bounding memory.
func (b *bench) keep(r *runRec) {
	if r.layers == nil || r.layers.rec == nil {
		return
	}
	rec := r.layers.rec
	r.layers.rec = nil
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.kept.branches == nil && len(rec.branches) > 0 {
		b.kept.branches, b.kept.loads = rec.branches, rec.loads
	}
	if _, ok := b.keptBlocks[r.kind]; !ok && len(rec.blocks) > 0 {
		b.keptBlocks[r.kind] = rec.blocks
	}
}

// replayRepeats is how often each kept stream is replayed; the median
// host time per call is reported.
const replayRepeats = 3

// layerReport sets the per-layer metrics of the simulation layers
// (workload, bpu, icache, mem, core, sim) and bench.unattributed_pct.
// Counts and simulated figures come from pass, one pass of the workload;
// host times from all, every traced run; p configures the replays.
func (b *bench) layerReport(p sim.Params, pass, all []*runRec) error {
	var (
		builds, assembles                []float64
		loopNs, nextNs, icNs             float64
		loopInstrs, branches, loads      uint64
		allNext                          uint64
		nextCalls, predicts, ldCalls, fb uint64
		cycles                           uint64
		mpkis                            []float64
	)
	for _, r := range all {
		l := r.layers
		builds = append(builds, in(time.Millisecond, r.build)...)
		assembles = append(assembles, in(time.Millisecond, r.assemble)...)
		loopNs += float64(r.warm+r.measure) - 2*b.timerNs*float64(l.timed())
		loopInstrs += r.warmInstrs + r.measured
		nextNs += l.nextNs
		allNext += l.nextCalls
		icNs += l.hitNs + l.missNs + l.prefNs
		branches += l.branches
		loads += l.loads
	}
	for _, r := range pass {
		nextCalls += r.layers.nextCalls
		predicts += r.layers.branches
		ldCalls += r.layers.loads
		fb += r.layers.missesIssued
		cycles += r.res.Core.Cycles
		mpkis = append(mpkis, r.res.BPU.MPKI(r.res.Core.Instructions))
	}

	var bpNs, ldNs, fbNs []float64
	for i := 0; i < replayRepeats; i++ {
		if n := len(b.kept.branches); n > 0 {
			d, _ := replayBPU(p.BPU, b.kept.branches)
			bpNs = append(bpNs, float64(d)/float64(n))
		}
		if len(b.kept.loads) > 0 {
			calls, d, err := replayLoads(p, b.kept.loads)
			if err != nil {
				return err
			}
			ldNs = append(ldNs, float64(d)/float64(calls))
		}
		var calls uint64
		var d time.Duration
		for _, reqs := range b.keptBlocks {
			c, dd, err := replayBlocks(p, reqs)
			if err != nil {
				return err
			}
			calls, d = calls+c, d+dd
		}
		fbNs = append(fbNs, ratio(float64(d), float64(calls)))
	}
	bpuNs, l1dNs := median(bpNs), median(ldNs)

	b.set("workload.build_ms", median(builds))
	b.set("workload.next_calls", float64(nextCalls))
	b.set("workload.next_ns", ratio(nextNs, float64(allNext)))
	b.set("bpu.predict_calls", float64(predicts))
	b.set("bpu.predict_ns", bpuNs)
	b.set("bpu.mispredict_mpki", mean(mpkis))
	b.set("mem.fetchblock_calls", float64(fb))
	b.set("mem.fetchblock_ns", median(fbNs))
	b.set("mem.l1d_load_calls", float64(ldCalls))
	b.set("mem.l1d_load_ns", l1dNs)
	b.set("core.cycles", float64(cycles))
	b.set("core.cycle_ns_per_instr", ratio(loopNs, float64(loopInstrs)))
	b.set("core.self_ns_per_instr", ratio(loopNs-nextNs-icNs, float64(loopInstrs)))
	b.set("sim.newmachine_ms", median(assembles))
	b.set("sim.ubs_ipc_gain_pct", ubsGainPct(pass))
	// The replays stand in for the BPU and L1-D time inside the core;
	// whatever the layers' sum leaves of the traced loop is the cost of
	// composing them, with the core's own work.
	attributed := nextNs + icNs + float64(branches)*bpuNs + float64(loads)*l1dNs
	b.set("bench.unattributed_pct", 100*ratio(loopNs-attributed, loopNs))

	for _, d := range designs {
		var (
			fetches, prefs, hits, misses, issued, drops uint64
			hitNs, missNs, prefNs                       float64
			mpki, partial, eff, ipc, stall              []float64
		)
		for _, r := range pass {
			if r.kind != d.key {
				continue
			}
			fetches += r.layers.fetches
			prefs += r.layers.prefetches
			res := r.res
			issued += res.ICache.Prefetches
			drops += res.ICache.PrefetchDrops
			mpki = append(mpki, res.MPKI())
			partial = append(partial, res.ICache.PartialMissFraction())
			eff = append(eff, mean(res.EffSamples))
			ipc = append(ipc, res.IPC())
			stall = append(stall, res.Core.FrontEndStallFraction())
		}
		var prefCalls uint64
		for _, r := range all {
			if r.kind != d.key {
				continue
			}
			l := r.layers
			hits += l.hits
			misses += l.fetches - l.hits
			hitNs += l.hitNs
			missNs += l.missNs
			prefNs += l.prefNs
			prefCalls += l.prefetches
		}
		b.set("icache.fetch_calls."+d.key, float64(fetches))
		b.set("icache.fetch_hit_ns."+d.key, ratio(hitNs, float64(hits)))
		b.set("icache.fetch_miss_ns."+d.key, ratio(missNs, float64(misses)))
		b.set("icache.prefetch_calls."+d.key, float64(prefs))
		b.set("icache.prefetch_ns."+d.key, ratio(prefNs, float64(prefCalls)))
		b.set("icache.mpki."+d.key, mean(mpki))
		b.set("icache.partial_miss_frac."+d.key, mean(partial))
		b.set("icache.prefetch_drop_frac."+d.key, ratio(float64(drops), float64(issued+drops)))
		b.set("icache.storage_eff."+d.key, mean(eff))
		b.set("core.ipc."+d.key, mean(ipc))
		b.set("core.icache_stall_frac."+d.key, mean(stall))
	}
	return nil
}

// ubsGainPct is the simulated IPC of ubs over conv-32KB, in percent,
// averaged over the workloads that ran both.
func ubsGainPct(runs []*runRec) float64 {
	ipc := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.res.Design != "conv-32KB" && r.res.Design != "ubs" {
			continue
		}
		if ipc[r.res.Workload] == nil {
			ipc[r.res.Workload] = map[string][]float64{}
		}
		ipc[r.res.Workload][r.res.Design] = append(ipc[r.res.Workload][r.res.Design], r.res.IPC())
	}
	var gains []float64
	for _, byDesign := range ipc {
		conv, u := mean(byDesign["conv-32KB"]), mean(byDesign["ubs"])
		if conv > 0 && u > 0 {
			gains = append(gains, 100*(u/conv-1))
		}
	}
	return mean(sorted(gains))
}

// overheadPct compares the measured-phase host time per instruction of
// traced runs with untraced runs of the same points, per design kind,
// and returns the mean excess of the traced runs in percent.
func overheadPct(traced, untraced []*runRec) float64 {
	t, u := nsByKind(traced), nsByKind(untraced)
	var xs []float64
	for _, d := range designs {
		if base := u[d.key]; base > 0 && t[d.key] > 0 {
			xs = append(xs, 100*(t[d.key]/base-1))
		}
	}
	return mean(xs)
}

// nsByKind is the measured-phase host time per measured instruction of
// runs, by design kind: the trimmed mean over the runs of each kind.
func nsByKind(runs []*runRec) map[string]float64 {
	per := map[string][]float64{}
	for _, r := range runs {
		per[r.kind] = append(per[r.kind], r.nsPerInstr())
	}
	out := map[string]float64{}
	for k, xs := range per {
		out[k] = trimmedMean(xs)
	}
	return out
}
