package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// The paper sweep at the tiny settings the repository's verification
// notes use: every experiment, one workload per family.
const (
	sweepPerFamily = 1
	sweepWarmup    = 20_000
	sweepMeasure   = 50_000
	// warmSweeps is how many warm sweeps follow each cold one.
	warmSweeps = 4
)

// sweepPass is one runner.Sweep over a result cache directory.
type sweepPass struct {
	runs    []*runRec // the points the store computed
	outcome []byte    // results.json (timings scrubbed) and rendered tables
	wall    time.Duration
}

// runSweep runs the paper-sweep workload: runner.Sweep over every
// experiment with nproc workers, once against an empty cache directory
// (cold: every point simulated and written) and warmSweeps times against
// the now populated one (warm: every point read back), until the budget
// is spent. The experiment registry fixes the sweep's inputs; the seed
// does not change them.
func (b *bench) runSweep() error {
	ctx := context.Background()
	spec := runner.Spec{
		Experiments: []string{"all"},
		PerFamily:   sweepPerFamily,
		Parallel:    b.workers,
		Params:      runner.ParamSpec{Warmup: sweepWarmup, Measure: sweepMeasure},
		OmitTimings: true,
	}

	var ref *sweepPass
	if b.traced {
		// The untraced reference: traced sweeps must produce its outcome,
		// and its host time is the base of the tracing overhead.
		var err error
		if ref, err = b.sweep(ctx, spec, filepath.Join(b.dir, "ref"), false); err != nil {
			return err
		}
	}
	var (
		cold         []*sweepPass
		colds, warms []time.Duration
		warmComputed int
	)
	// Passes run while one more, as long as the last, fits the budget.
	start, last := time.Now(), time.Duration(0)
	for i := 0; i == 0 || time.Since(start)+last <= b.budget; i++ {
		passStart := time.Now()
		dir := filepath.Join(b.dir, fmt.Sprintf("cache%d", i))
		c, err := b.sweep(ctx, spec, dir, b.traced)
		if err != nil {
			return err
		}
		for k := 0; k < warmSweeps; k++ {
			// The warm sweep allocates little; start it on a collected heap.
			runtime.GC()
			w, err := b.sweep(ctx, spec, dir, false)
			if err != nil {
				return err
			}
			b.check(len(w.runs) == 0, "warm sweep %d simulated %d points", i, len(w.runs))
			b.check(bytes.Equal(w.outcome, c.outcome), "warm sweep %d outcome differs from the cold one", i)
			warms = append(warms, w.wall)
			if i == 0 {
				warmComputed += len(w.runs)
			}
		}
		if ref == nil {
			ref = c
		} else {
			b.check(bytes.Equal(c.outcome, ref.outcome), "cold sweep %d outcome differs from the first", i)
			// Checked: drop it, so the heap, and peak_rss_mb, do not grow
			// with the number of passes that fit the budget.
			c.outcome = nil
		}
		cold = append(cold, c)
		colds = append(colds, c.wall)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		last = time.Since(passStart)
	}

	var all []*runRec
	var lat, setups []float64
	for _, c := range cold {
		all = append(all, c.runs...)
		for _, r := range c.runs {
			lat = append(lat, ms(r.total()))
			setups = append(setups, r.setup().Seconds())
			if r.kind == "ubs" {
				b.check(r.invariants == nil, "ubs invariants on %s: %v", r.res.Workload, r.invariants)
			}
		}
	}
	perKind := nsByKind(all)
	for _, d := range designs {
		b.set("ns_per_instr."+d.key, perKind[d.key])
	}
	b.set("setup_s", median(setups))
	b.set("run_s", trimmedMean(in(time.Second, colds...)))
	b.set("warm_s", trimmedMean(in(time.Second, warms...)))
	b.setJobs(lat)
	b.note("sweep_pairs", len(cold))
	b.note("sweep_points", len(cold[0].runs))
	if err := b.checkpointProbe(ctx, "server_001", spec.SimParams()); err != nil {
		return err
	}

	if !b.traced {
		return nil
	}
	pass := cold[0].runs
	if err := b.layerReport(spec.SimParams(), pass, all); err != nil {
		return err
	}
	b.set("bench.trace_overhead_pct", overheadPct(all, ref.runs))
	b.setRunner(pass, warmSweeps*len(pass)-warmComputed, (1+warmSweeps)*len(pass), colds[0], b.workers)
	return b.serveLayer()
}

// sweep runs the spec once against the result cache in dir, simulating
// the points the cache lacks through the store's SimWorkload seam.
func (b *bench) sweep(ctx context.Context, spec runner.Spec, dir string, traced bool) (*sweepPass, error) {
	store := runner.NewStore(dir)
	pass := &sweepPass{}
	var mu sync.Mutex
	store.SimWorkload = func(ctx context.Context, p sim.Params, w workloadspec.Workload, name string, f sim.FrontendFactory) (sim.Result, error) {
		r, err := b.simulate(ctx, p, w, name, f, simOpts{traced: traced, record: traced})
		if err != nil {
			return sim.Result{}, err
		}
		mu.Lock()
		pass.runs = append(pass.runs, r)
		mu.Unlock()
		return r.res, nil
	}
	sw := &runner.Sweep{Spec: spec, Store: store}
	t0 := time.Now()
	out, err := sw.RunContext(ctx)
	pass.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	tables := make([]string, len(out.Experiments))
	for i, e := range out.Experiments {
		tables[i] = e.Output
	}
	if pass.outcome, err = json.Marshal(struct {
		Results runner.ResultsFile
		Tables  []string
	}{out.Results, tables}); err != nil {
		return nil, err
	}
	return pass, nil
}
