package runner

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"

	"ubscache/internal/checkpoint"
	"ubscache/internal/exp"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// Sweep runs a Spec end to end. Execution has four phases:
//
//  1. capture — every selected experiment is dry-run to discover the
//     simulation points and functional passes it will request;
//  2. warm — the globally deduplicated points and passes execute across
//     the worker pool into the Store;
//  3. render — experiments run sequentially in paper order against the
//     warm store, so the rendered tables are byte-identical to a serial
//     run regardless of the worker count;
//  4. artifacts — results.json and per-experiment .txt/.csv files.
type Sweep struct {
	Spec Spec
	// Store memoizes simulation results; nil means a fresh in-memory one.
	Store *Store
	// Progress receives scheduler progress/ETA lines; nil silences them.
	Progress io.Writer
	// ArtifactDir, when non-empty, receives <id>.txt and <id>.csv per
	// experiment.
	ArtifactDir string
	// ResultsPath, when non-empty, receives the results.json artifact.
	ResultsPath string
}

// ExperimentOutcome is one rendered experiment. It is returned to
// callers that publish it (the daemon's job results embed it), so
// ubslint's determinism clock rule treats its fields as sinks.
//
//ubs:artifact
type ExperimentOutcome struct {
	Experiment exp.Experiment
	Output     string
	// Seconds is the attributed cost: this experiment's simulation time
	// (shared points attributed to every user) plus rendering time.
	Seconds float64
}

// Outcome is a completed sweep.
type Outcome struct {
	Experiments []ExperimentOutcome
	Results     ResultsFile
}

type expPlan struct {
	e    exp.Experiment
	sims []exp.SimPoint
	keys []string // sims' store keys, same order
	aux  []exp.AuxPoint
}

// Run executes the sweep.
func (sw *Sweep) Run() (*Outcome, error) {
	return sw.RunContext(context.Background())
}

// RunContext is Run honouring ctx. On cancellation the warm phase stops
// dispatching, in-flight simulations unwind at their next heartbeat
// interval, and — instead of rendering — the completed runs are flushed to
// ResultsPath (marked "interrupted") so partial progress survives; the
// returned Outcome carries those runs alongside ctx's error.
func (sw *Sweep) RunContext(ctx context.Context) (*Outcome, error) {
	start := time.Now()
	store := sw.Store
	if store == nil {
		store = NewStore("")
	}
	keys := &pointKeys{}
	r := exp.NewRunner(exp.Options{
		Params:    sw.Spec.SimParams(),
		PerFamily: sw.Spec.PerFamily,
		Exec: func(p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, error) {
			res, _, err := store.runKeyed(ctx, keys.key(p, w, design), p, w, design, factory)
			return res, err
		},
		Aux: store.RunAux,
	})

	// Phase 1: capture. Points are deduplicated across experiments by
	// content key; first-seen order fixes the order of the results.json
	// runs array. The schedule groups the tasks by workload, in the order
	// workloads are first seen, so that the runs of one workload follow
	// each other and share the program workload.New keeps.
	exps, err := sw.Spec.Plan()
	if err != nil {
		return nil, err
	}
	plans := make([]expPlan, 0, len(exps))
	var (
		groups  [][]Task
		group   = make(map[string]int) // workload name -> index in groups
		order   []string
		points  = make(map[string]exp.SimPoint)
		usedBy  = make(map[string][]string)
		auxSeen = make(map[string]bool)
	)
	schedule := func(workload string, t Task) {
		i, ok := group[workload]
		if !ok {
			i = len(groups)
			group[workload] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], t)
	}
	for _, e := range exps {
		sims, aux, err := r.Capture(e)
		if err != nil {
			return nil, err
		}
		pl := expPlan{e: e, sims: sims, aux: aux}
		for _, pt := range sims {
			key := keys.key(pt.Params, pt.Workload, pt.Design)
			pl.keys = append(pl.keys, key)
			if _, ok := points[key]; !ok {
				points[key] = pt
				order = append(order, key)
				pt := pt
				schedule(pt.Workload.Name, Task{
					Name: pt.Workload.Name + "/" + pt.Design,
					Run: func() error {
						_, _, err := store.runKeyed(ctx, key, pt.Params, pt.Workload, pt.Design, pt.Factory)
						return err
					},
				})
			}
			usedBy[key] = append(usedBy[key], e.ID)
		}
		for _, ax := range aux {
			if auxSeen[ax.Key] {
				continue
			}
			auxSeen[ax.Key] = true
			schedule(ax.Workload, Task{Name: ax.Key, Run: ax.Run})
		}
		plans = append(plans, pl)
	}
	tasks := slices.Concat(groups...)

	// Phase 2: warm the store across the pool.
	workers := sw.Spec.Workers()
	if sw.Progress != nil {
		fmt.Fprintf(sw.Progress, "runner: %d experiment(s) -> %d unique run(s) on %d worker(s)\n",
			len(exps), len(tasks), workers)
	}
	sched := &Scheduler{Workers: workers, Progress: sw.Progress}
	if err := sched.RunContext(ctx, tasks); err != nil {
		if ctx.Err() != nil {
			return sw.flushPartial(ctx, store, order, points, usedBy, workers, start)
		}
		return nil, err
	}

	// Phase 3: render sequentially — pure formatting against warm caches.
	out := &Outcome{}
	rf := ResultsFile{Schema: 1, Spec: sw.Spec, Workers: workers}
	for _, pl := range plans {
		t0 := time.Now()
		text, err := pl.e.Run(r)
		if err != nil {
			return nil, fmt.Errorf("runner: %s: %w", pl.e.ID, err)
		}
		render := time.Since(t0).Seconds()
		simSec := 0.0
		for _, key := range pl.keys {
			simSec += store.Meta(key).Seconds
		}
		//ubs:wallclock attributed-cost metadata (sim+render seconds); scrubbed under OmitTimings
		out.Experiments = append(out.Experiments, ExperimentOutcome{
			Experiment: pl.e, Output: text, Seconds: simSec + render,
		})
		//ubs:wallclock per-experiment timing metadata in results.json; scrubbed under OmitTimings
		rf.Experiments = append(rf.Experiments, ExperimentRecord{
			ID: pl.e.ID, Title: pl.e.Title, Paper: pl.e.Paper,
			SimSeconds: simSec, RenderSeconds: render, Runs: pl.keys,
			Rollup: rollup(pl.keys, store, simSec),
		})
	}

	// Phase 4: artifacts.
	byKey := make(map[string]RunRecord, len(order))
	for _, key := range order {
		pt := points[key]
		res, ok := store.Result(key)
		if !ok {
			return nil, fmt.Errorf("runner: point %s missing after warm phase", key)
		}
		rec := record(key, pt.Params, res, store.Meta(key), usedBy[key], workloadFamily(pt.Workload))
		byKey[key] = rec
		rf.Runs = append(rf.Runs, rec)
	}
	//ubs:wallclock whole-sweep duration metadata in results.json; scrubbed under OmitTimings
	rf.WallSeconds = time.Since(start).Seconds()
	if sw.Spec.OmitTimings {
		scrubTimings(&rf)
		for key, rec := range byKey {
			rec.Seconds, rec.FromCache = 0, false
			byKey[key] = rec
		}
	}
	out.Results = rf

	if sw.ArtifactDir != "" {
		for i, pl := range plans {
			txt := filepath.Join(sw.ArtifactDir, pl.e.ID+".txt")
			//ubs:wallclock Output is the rendered table; the clock reaches only out's Seconds fields
			if err := checkpoint.WriteFileAtomic(txt, []byte(out.Experiments[i].Output+"\n")); err != nil {
				return nil, err
			}
			recs := make([]RunRecord, 0, len(pl.keys))
			for _, key := range pl.keys {
				recs = append(recs, byKey[key])
			}
			if err := WriteCSV(filepath.Join(sw.ArtifactDir, pl.e.ID+".csv"), recs); err != nil {
				return nil, err
			}
		}
	}
	if sw.ResultsPath != "" {
		if err := WriteResults(sw.ResultsPath, &rf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pointKeys memoizes store keys by exact point identity (exp.PointID),
// so a sweep hashes each distinct point once while planning and its
// tasks and render phase reuse the key. Every point of a sweep shares
// the sweep's Params, which the identity therefore leaves out; a request
// under other Params bypasses the memo. It is not safe for concurrent
// use: planning and rendering are single-goroutine.
type pointKeys struct {
	p    sim.Params
	keys map[exp.PointID]string
}

func (m *pointKeys) key(p sim.Params, w workloadspec.Workload, design string) string {
	if m.keys == nil {
		m.p, m.keys = p, make(map[exp.PointID]string)
	} else if p != m.p {
		return WorkloadKey(p, w, design)
	}
	id := exp.PointOf(w, design)
	key, ok := m.keys[id]
	if !ok {
		key = WorkloadKey(p, w, design)
		m.keys[id] = key
	}
	return key
}

// flushPartial salvages an interrupted sweep: every point the store
// completed before cancellation becomes a results.json run record, the
// file is marked interrupted, and rendering is skipped (tables over
// partial data would silently misrepresent the artifact). The ctx error is
// returned alongside the partial outcome.
func (sw *Sweep) flushPartial(ctx context.Context, store *Store, order []string,
	points map[string]exp.SimPoint, usedBy map[string][]string,
	workers int, start time.Time) (*Outcome, error) {
	rf := ResultsFile{Schema: 1, Spec: sw.Spec, Workers: workers, Interrupted: true,
		Runs: []RunRecord{}} // an all-cancelled sweep still writes "runs": []
	for _, key := range order {
		res, ok := store.Result(key)
		if !ok {
			continue
		}
		rf.Runs = append(rf.Runs, record(key, points[key].Params, res, store.Meta(key), usedBy[key], workloadFamily(points[key].Workload)))
	}
	//ubs:wallclock interrupted-sweep duration metadata; scrubbed under OmitTimings
	rf.WallSeconds = time.Since(start).Seconds()
	if sw.Spec.OmitTimings {
		scrubTimings(&rf)
	}
	out := &Outcome{Results: rf}
	if sw.ResultsPath != "" {
		if err := WriteResults(sw.ResultsPath, &rf); err != nil {
			return out, fmt.Errorf("runner: interrupted (%w); flushing partial results: %v", ctx.Err(), err)
		}
		if sw.Progress != nil {
			fmt.Fprintf(sw.Progress, "runner: interrupted; flushed %d completed run(s) to %s\n",
				len(rf.Runs), sw.ResultsPath)
		}
	}
	return out, ctx.Err()
}
