package workload_test

import (
	"encoding/json"
	"slices"
	"testing"

	"ubscache/internal/exp"
	"ubscache/internal/runner"
	"ubscache/internal/workload"
)

// TestColdSweepBuildsEachProgramOnce runs a cold sweep whose experiments
// request their workloads interleaved — fig1's functional passes walk
// each family's first workload, then fig9 and fig10 time one design
// after another across them — on one worker. The schedule groups the tasks by
// workload, so New builds each distinct program once; the outcome is the
// same as on four workers, and results.json lists the runs in the order
// the experiments first request them, not in the schedule's.
func TestColdSweepBuildsEachProgramOnce(t *testing.T) {
	experiments := []string{"fig1", "fig9", "fig10"}
	sweep := func(parallel int) *runner.Outcome {
		t.Helper()
		out, err := (&runner.Sweep{Spec: runner.Spec{
			Experiments: experiments,
			PerFamily:   1,
			Parallel:    parallel,
			Params:      runner.ParamSpec{Warmup: 20_000, Measure: 40_000},
			OmitTimings: true,
		}}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// The workloads the experiments' timed runs and passes open.
	var workloads []string
	add := func(name string) {
		if !slices.Contains(workloads, name) {
			workloads = append(workloads, name)
		}
	}
	r := exp.NewRunner(exp.Options{PerFamily: 1})
	for _, id := range experiments {
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		sims, aux, err := r.Capture(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range sims {
			add(pt.Workload.Name)
		}
		for _, ax := range aux {
			add(ax.Workload)
		}
	}

	builds := workload.ColdBuilds()
	seq := sweep(1)
	if got := builds(); got != len(workloads) {
		t.Errorf("cold sweep over %d workloads %v built %d programs, want one each", len(workloads), workloads, got)
	}

	// results.json lists each run once, in first-request order across
	// the experiments' run lists.
	var want []string
	for _, e := range seq.Results.Experiments {
		for _, k := range e.Runs {
			if !slices.Contains(want, k) {
				want = append(want, k)
			}
		}
	}
	var got []string
	for _, r := range seq.Results.Runs {
		got = append(got, r.Key)
	}
	if !slices.Equal(got, want) {
		t.Errorf("results.json runs in order %v, want first-request order %v", got, want)
	}

	par := sweep(4)
	for i := range seq.Experiments {
		if seq.Experiments[i].Output != par.Experiments[i].Output {
			t.Errorf("%s renders differently on 1 and 4 workers:\n%s\n---\n%s", seq.Experiments[i].Experiment.ID,
				seq.Experiments[i].Output, par.Experiments[i].Output)
		}
	}
	seqJSON, parJSON := resultsJSON(t, seq), resultsJSON(t, par)
	if seqJSON != parJSON {
		t.Errorf("results.json differs on 1 and 4 workers:\n%s\n---\n%s", seqJSON, parJSON)
	}
}

// resultsJSON returns the results file of out as it is written, with
// the worker count, which it records, left out.
func resultsJSON(t *testing.T, out *runner.Outcome) string {
	t.Helper()
	rf := out.Results
	rf.Workers = 0
	rf.Spec.Parallel = 0
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
