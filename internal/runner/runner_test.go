package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ubscache/internal/exp"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// tinySpec keeps end-to-end sweeps fast: one workload per family, short
// runs, and experiments that share simulation points (fig9's UBS runs are
// a subset of fig10's).
func tinySpec(parallel int) Spec {
	return Spec{
		Experiments: []string{"fig9", "fig10"},
		PerFamily:   1,
		Parallel:    parallel,
		Params:      ParamSpec{Warmup: 20_000, Measure: 60_000},
	}
}

func runSweep(t *testing.T, sw *Sweep) *Outcome {
	t.Helper()
	out, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func renderedText(out *Outcome) string {
	var b strings.Builder
	for _, eo := range out.Experiments {
		b.WriteString(eo.Experiment.ID + "\n" + eo.Output + "\n")
	}
	return b.String()
}

// TestSweepParallelMatchesSequential is the headline guarantee: rendered
// tables are byte-identical whatever the worker count, and both match a
// plain serial render (no capture or warm phase) against a fresh Store.
func TestSweepParallelMatchesSequential(t *testing.T) {
	seq := runSweep(t, &Sweep{Spec: tinySpec(1)})
	par := runSweep(t, &Sweep{Spec: tinySpec(8)})
	if renderedText(seq) != renderedText(par) {
		t.Fatalf("parallel output differs from sequential:\n--- seq\n%s\n--- par\n%s",
			renderedText(seq), renderedText(par))
	}

	// Serial render: every point runs lazily as the tables request it.
	store := NewStore("")
	r := exp.NewRunner(exp.Options{
		Params: tinySpec(1).SimParams(), PerFamily: 1,
		Exec: func(p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, error) {
			return store.RunWorkloadContext(context.Background(), p, w, design, factory)
		},
		Aux: store.RunAux,
	})
	var serial strings.Builder
	for _, id := range []string{"fig9", "fig10"} {
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		text, err := e.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		serial.WriteString(e.ID + "\n" + text + "\n")
	}
	if serial.String() != renderedText(par) {
		t.Fatalf("sweep output differs from the serial render:\n--- serial\n%s\n--- sweep\n%s",
			serial.String(), renderedText(par))
	}
}

// TestSweepDeduplicatesAcrossExperiments: fig9 needs (3 families × ubs)
// and fig10 needs (3 families × {conv-32KB, conv-64KB, ubs}); the shared
// UBS points must be simulated once, giving 9 unique runs.
func TestSweepDeduplicatesAcrossExperiments(t *testing.T) {
	out := runSweep(t, &Sweep{Spec: tinySpec(4)})
	if len(out.Results.Runs) != 9 {
		t.Fatalf("expected 9 deduplicated runs, got %d", len(out.Results.Runs))
	}
	shared := 0
	for _, run := range out.Results.Runs {
		if run.Design == "ubs" {
			if !reflect.DeepEqual(run.Experiments, []string{"fig9", "fig10"}) {
				t.Errorf("ubs run %s attributed to %v", run.Workload, run.Experiments)
			}
			shared++
		}
		if run.IPC <= 0 || run.Cycles == 0 {
			t.Errorf("run %s/%s has empty counters: %+v", run.Workload, run.Design, run)
		}
	}
	if shared != 3 {
		t.Errorf("expected 3 shared ubs runs, got %d", shared)
	}
}

// TestSweepArtifacts exercises -out/-json: results.json round-trips
// through encoding/json and the per-experiment CSVs carry every point.
func TestSweepArtifacts(t *testing.T) {
	dir := t.TempDir()
	resultsPath := filepath.Join(dir, "results.json")
	out := runSweep(t, &Sweep{
		Spec:        tinySpec(4),
		ArtifactDir: dir,
		ResultsPath: resultsPath,
	})

	data, err := os.ReadFile(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rf ResultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		t.Fatalf("results.json does not round-trip: %v", err)
	}
	if rf.Schema != 1 || len(rf.Runs) != len(out.Results.Runs) {
		t.Fatalf("round-trip mismatch: schema=%d runs=%d want %d",
			rf.Schema, len(rf.Runs), len(out.Results.Runs))
	}
	for i, run := range rf.Runs {
		want := out.Results.Runs[i]
		if run.Key != want.Key || run.IPC != want.IPC || run.Family != want.Family {
			t.Errorf("run %d changed across the round-trip: %+v vs %+v", i, run, want)
		}
	}
	if len(rf.Experiments) != 2 || rf.Experiments[1].ID != "fig10" {
		t.Fatalf("experiments section: %+v", rf.Experiments)
	}
	if got := len(rf.Experiments[1].Runs); got != 9 {
		t.Errorf("fig10 should reference 9 runs, got %d", got)
	}

	for _, id := range []string{"fig9", "fig10"} {
		txt, err := os.ReadFile(filepath.Join(dir, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if len(txt) < 50 {
			t.Errorf("%s.txt suspiciously short", id)
		}
		csvData, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
		if lines[0] != strings.Join(csvHeader, ",") {
			t.Errorf("%s.csv header: %s", id, lines[0])
		}
		wantRows := map[string]int{"fig9": 3, "fig10": 9}[id]
		if len(lines)-1 != wantRows {
			t.Errorf("%s.csv has %d rows, want %d", id, len(lines)-1, wantRows)
		}
	}
}

// TestSweepResume: a second sweep sharing the cache dir performs no new
// simulations and reproduces the exact output.
func TestSweepResume(t *testing.T) {
	cache := t.TempDir()
	first := runSweep(t, &Sweep{Spec: tinySpec(4), Store: NewStore(cache)})

	second := runSweep(t, &Sweep{Spec: tinySpec(4), Store: NewStore(cache)})
	if renderedText(first) != renderedText(second) {
		t.Fatal("resumed sweep rendered different tables")
	}
	for _, run := range second.Results.Runs {
		if !run.FromCache {
			t.Errorf("run %s/%s resimulated despite the cache", run.Workload, run.Design)
		}
	}
}

// TestSweepFunctionalPasses: fig1 has no timed simulations, only
// functional passes; they are captured, scheduled, and rendered.
func TestSweepFunctionalPasses(t *testing.T) {
	spec := Spec{
		Experiments: []string{"fig1"},
		PerFamily:   1,
		Parallel:    4,
		Params:      ParamSpec{Warmup: 20_000, Measure: 40_000},
	}
	var progress strings.Builder
	out := runSweep(t, &Sweep{Spec: spec, Progress: &progress})
	if len(out.Results.Runs) != 0 {
		t.Errorf("fig1 should have no timed runs, got %d", len(out.Results.Runs))
	}
	if !strings.Contains(out.Experiments[0].Output, "CDF") {
		t.Errorf("fig1 output:\n%s", out.Experiments[0].Output)
	}
	// 4 families × 1 workload functional passes went through the pool.
	if !strings.Contains(progress.String(), "fig1|google_001") {
		t.Errorf("functional passes not scheduled:\n%s", progress.String())
	}
}
