package runner

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep_tables.golden from this build")

// goldenTablesSpec is the sweep TestSweepTablesGolden pins: every
// registered experiment, one workload per family, 5k+10k instructions.
func goldenTablesSpec(parallel int) Spec {
	return Spec{
		Experiments: []string{"all"},
		PerFamily:   1,
		Parallel:    parallel,
		Params:      ParamSpec{Warmup: 5_000, Measure: 10_000},
	}
}

// TestSweepTablesGolden pins the rendered tables of `ubsweep -exp all
// -per-family 1 -warmup 5000 -measure 10000` byte for byte, at one and
// at four workers. A change to scheduling, deduplication or the Store
// must leave them as they are; a deliberate model change re-pins the
// file with -update and says so in its description.
func TestSweepTablesGolden(t *testing.T) {
	path := filepath.Join("testdata", "sweep_tables.golden")
	var got []string
	for _, parallel := range []int{1, 4} {
		got = append(got, renderedText(runSweep(t, &Sweep{Spec: goldenTablesSpec(parallel)})))
	}
	if got[0] != got[1] {
		t.Fatalf("tables at 1 and 4 workers differ:\n--- 1\n%s\n--- 4\n%s", got[0], got[1])
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got[0]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != string(want) {
		gl, wl := strings.Split(got[0], "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("tables drifted from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	}
}

// errRecomputed fails a simulation that a warm sweep should have read
// from its result cache.
var errRecomputed = errors.New("runner test: a warm sweep missed the result cache")

// failRecompute is a Store.SimWorkload that fails every simulation.
func failRecompute(context.Context, sim.Params, workloadspec.Workload, string, sim.FrontendFactory) (sim.Result, error) {
	return sim.Result{}, errRecomputed
}

// TestSweepWarmTablesGolden re-renders TestSweepTablesGolden's sweep
// from a result cache: a fresh Store over the cold pass's directory,
// whose SimWorkload fails, must print the golden tables and the cold
// pass's results.json byte for byte, and read every timed point and
// functional pass from disk.
func TestSweepWarmTablesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sweep_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	spec := goldenTablesSpec(4)
	spec.OmitTimings = true // from_cache and seconds differ between the passes
	dir := t.TempDir()
	pass := func(store *Store) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "results.json")
		out := runSweep(t, &Sweep{Spec: spec, Store: store, ResultsPath: path})
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return renderedText(out), raw
	}
	coldTables, coldResults := pass(NewStore(dir))
	if coldTables != string(want) {
		t.Fatal("the cold pass drifted from the golden tables; TestSweepTablesGolden shows where")
	}
	warm := NewStore(dir)
	warm.SimWorkload = failRecompute
	warmTables, warmResults := pass(warm)
	if warmTables != coldTables {
		t.Errorf("warm sweep rendered different tables:\n--- cold\n%s\n--- warm\n%s", coldTables, warmTables)
	}
	if !bytes.Equal(warmResults, coldResults) {
		t.Errorf("warm sweep wrote a different results.json:\n--- cold\n%s\n--- warm\n%s", coldResults, warmResults)
	}
	warm.mu.Lock()
	defer warm.mu.Unlock()
	for key, e := range warm.entries {
		if !e.meta.Disk {
			t.Errorf("warm sweep computed %s", key)
		}
	}
	if len(warm.entries) != 113 {
		t.Errorf("warm sweep holds %d entries, want 104 timed points and 9 passes", len(warm.entries))
	}
}
