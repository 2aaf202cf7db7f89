package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"ubscache/internal/checkpoint"
	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// Run lengths of the simulation workloads: measurement starts after a
// warmup that fills the L1-I and the BPU, and runs long enough that host
// time per instruction is steady.
const (
	simWarmup  = 200_000
	simMeasure = 1_000_000
	// simStep is the Advance step whose latency is the simulation
	// workloads' job latency: the unit an embedding caller waits on.
	simStep = 25_000
	// warmRepeats is how often a warm_s sample re-resolves the round's
	// points from the populated result cache; each round takes
	// warmSamples such samples.
	warmRepeats = 10
	warmSamples = 20
	// Each round writes its ubs checkpoint ckSamples times and resumes it
	// resumeSamples times.
	ckSamples     = 4
	resumeSamples = 3
)

// errRecomputed fails a lookup that should have been served from cache.
var errRecomputed = errors.New("perfbench: a warm lookup missed the result cache")

// runSim runs the simulation workloads (server-fe, spec-loop): preset on
// the four designs in rounds until the budget is spent. The preset fixes
// the inputs; the seed does not change them. Each round simulates the
// designs in turn through a disk-backed runner.Store (ubs with a checkpoint at
// mid-measure), re-resolves them from the populated cache, and resumes
// the ubs checkpoint in a fresh machine.
func (b *bench) runSim(preset string) error {
	ctx := context.Background()
	w, err := workloadspec.ParseWorkload(preset)
	if err != nil {
		return err
	}
	p := sim.DefaultParams()
	p.Warmup, p.Measure = simWarmup, simMeasure
	ds, err := parseDesigns()
	if err != nil {
		return err
	}

	// Untraced reference runs: traced results must equal them, and their
	// host time is the base of the tracing overhead.
	var ref []*runRec
	if b.traced {
		for _, d := range ds {
			r, err := b.simulate(ctx, p, w, d.Name, d.Factory, simOpts{step: simStep})
			if err != nil {
				return err
			}
			ref = append(ref, r)
		}
	}

	ck := filepath.Join(b.dir, "ubs.ubsc")
	var (
		first, all                       []*runRec
		rounds, warms, resumes, ckWrites []time.Duration
	)
	// Rounds run while one more, as long as the last, fits the budget.
	start, last := time.Now(), time.Duration(0)
	for len(rounds) == 0 || time.Since(start)+last <= b.budget {
		roundStart := time.Now()
		dir := filepath.Join(b.dir, fmt.Sprintf("cache%d", len(rounds)))
		var (
			runs []*runRec
			cur  int
		)
		store := runner.NewStore(dir)
		store.SimWorkload = func(ctx context.Context, p sim.Params, w workloadspec.Workload, name string, f sim.FrontendFactory) (sim.Result, error) {
			o := simOpts{step: simStep, traced: b.traced, record: b.traced && first == nil}
			if designs[cur].key == "ubs" {
				o.ckPath = ck
				o.ckMeta = checkpoint.Meta{Workload: w.Spec, WorkloadName: w.Name, Design: designs[cur].shorthand, Params: p}
				o.ckSamples = ckSamples
			}
			r, err := b.simulate(ctx, p, w, name, f, o)
			if err != nil {
				return sim.Result{}, err
			}
			runs = append(runs, r)
			return r.res, nil
		}
		t0 := time.Now()
		results := make([]sim.Result, len(ds))
		for i, d := range ds {
			cur = i
			if results[i], err = store.RunWorkloadContext(ctx, p, w, d.Name, d.Factory); err != nil {
				return err
			}
		}
		round := time.Since(t0)
		if len(runs) != len(ds) {
			return fmt.Errorf("round %d simulated %d of %d designs", len(rounds), len(runs), len(ds))
		}
		var ubsRes sim.Result
		for i, r := range runs {
			round -= r.ckPause
			if first != nil {
				b.check(sameJSON(r.res, first[i].res), "%s: round %d result differs from round 0's", designs[i].key, len(rounds))
			}
			if ref != nil {
				b.check(sameJSON(r.res, ref[i].res), "%s: traced result differs from the untraced one", designs[i].key)
			}
			if r.kind == "ubs" {
				ubsRes = r.res
				ckWrites = append(ckWrites, r.ckWrites...)
				b.check(r.invariants == nil, "ubs invariants: %v", r.invariants)
			}
		}
		if first == nil {
			first = runs
		}
		rounds, all = append(rounds, round), append(all, runs...)

		// Each warm sample starts on a collected heap, so a collection owed
		// to earlier work does not land in it.
		for k := 0; k < warmSamples; k++ {
			runtime.GC()
			t1 := time.Now()
			cached, err := warmLookups(ctx, dir, p, w, ds)
			if err != nil {
				return err
			}
			warms = append(warms, time.Since(t1))
			for i, res := range cached {
				j := i % len(ds)
				b.check(sameJSON(res, results[j]), "%s: cached result differs from the computed one", designs[j].key)
			}
		}

		rd, err := b.resume(ctx, ck, ubsRes, resumeSamples)
		if err != nil {
			return err
		}
		resumes = append(resumes, rd...)
		if b.traced && len(rounds) == 1 {
			if err := b.checkpointLayers(ck, w); err != nil {
				return err
			}
		}
		last = time.Since(roundStart)
	}

	var setups, steps []float64
	for _, r := range all {
		setups = append(setups, r.setup().Seconds())
		steps = append(steps, in(time.Millisecond, r.steps...)...)
	}
	perKind := nsByKind(all)
	for _, d := range designs {
		b.set("ns_per_instr."+d.key, perKind[d.key])
	}
	b.set("setup_s", median(setups))
	b.set("run_s", trimmedMean(in(time.Second, rounds...)))
	b.set("warm_s", trimmedMean(in(time.Second, warms...)))
	b.set("checkpoint_write_ms", trimmedMean(in(time.Millisecond, ckWrites...)))
	b.set("resume_ms", trimmedMean(in(time.Millisecond, resumes...)))
	b.setJobs(steps)
	b.note("rounds", len(rounds))

	if !b.traced {
		return nil
	}
	if err := b.layerReport(p, first, all); err != nil {
		return err
	}
	b.set("bench.trace_overhead_pct", overheadPct(all, ref))
	lookups := len(ds) * (1 + warmSamples*warmRepeats)
	b.setRunner(first, lookups-len(first), lookups, rounds[0], 1)
	b.zero("serve.submit_us", "serve.queue_wait_ms.interactive", "serve.queue_wait_ms.batch",
		"serve.run_ms.interactive", "serve.run_ms.batch", "serve.from_cache_frac", "serve.rejected",
		"bench.gen_late_ms")
	return nil
}

// warmLookups re-resolves the designs' points warmRepeats times, each
// time through a fresh runner.Store over the populated directory dir.
func warmLookups(ctx context.Context, dir string, p sim.Params, w workloadspec.Workload, ds []sim.Design) ([]sim.Result, error) {
	out := make([]sim.Result, 0, warmRepeats*len(ds))
	for k := 0; k < warmRepeats; k++ {
		ws := runner.NewStore(dir)
		ws.SimWorkload = func(context.Context, sim.Params, workloadspec.Workload, string, sim.FrontendFactory) (sim.Result, error) {
			return sim.Result{}, errRecomputed
		}
		for _, d := range ds {
			res, err := ws.RunWorkloadContext(ctx, p, w, d.Name, d.Factory)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// setRunner reports the runner layer for pass, the runs the store
// computed in one pass taking wall on the given number of workers, with
// hits of its lookups served from the result cache.
func (b *bench) setRunner(pass []*runRec, hits, lookups int, wall time.Duration, workers int) {
	var sum, setup float64
	for _, r := range pass {
		sum += r.total().Seconds()
		setup += r.setup().Seconds()
	}
	b.set("runner.points", float64(len(pass)))
	b.set("runner.store_hit_frac", ratio(float64(hits), float64(lookups)))
	b.set("runner.sim_s_sum", sum)
	b.set("runner.setup_share", ratio(setup, sum))
	b.set("runner.parallel_eff", ratio(sum, wall.Seconds()*float64(workers)))
}
