package runner

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
