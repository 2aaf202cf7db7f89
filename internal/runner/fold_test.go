package runner

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"

	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// TestSweepSimulatesEachMachineOnce: -exp all asks for the Table II UBS
// as ubs (Figs. 7–10, 12, 13), ubs-32KB (Fig. 11), ubs-pred-direct-64
// (Fig. 15) and ubs-16way-c1 (Fig. 16). The sweep simulates each machine
// once per workload, under the first name it was requested by: 104
// points at one workload per family, not 113.
func TestSweepSimulatesEachMachineOnce(t *testing.T) {
	var mu sync.Mutex
	calls := make(map[string]int)
	store := NewStore("")
	store.SimWorkload = func(ctx context.Context, p sim.Params, w workloadspec.Workload, design string, f sim.FrontendFactory) (sim.Result, error) {
		mu.Lock()
		calls[w.Ident()+"|"+design]++
		mu.Unlock()
		return workloadspec.Run(ctx, p, w, design, f)
	}
	out := runSweep(t, &Sweep{Spec: goldenTablesSpec(2), Store: store})
	for key, n := range calls {
		if n != 1 {
			t.Errorf("%s simulated %d times", key, n)
		}
	}
	if len(calls) != 104 || len(out.Results.Runs) != 104 {
		t.Errorf("simulated %d points and recorded %d runs, want 104", len(calls), len(out.Results.Runs))
	}
	folded := 0
	for _, run := range out.Results.Runs {
		switch run.Design {
		case "ubs-32KB", "ubs-pred-direct-64", "ubs-16way-c1":
			t.Errorf("%s ran under its alias %s", run.Workload, run.Design)
		case "ubs":
			if !slices.Contains([]string{"client", "server", "spec"}, run.Family) {
				continue
			}
			folded++
			for _, id := range []string{"fig8", "fig11", "fig15", "fig16"} {
				if !slices.Contains(run.Experiments, id) {
					t.Errorf("ubs on %s lists %v, missing %s", run.Workload, run.Experiments, id)
				}
			}
		}
	}
	if folded != 3 {
		t.Errorf("%d ubs runs on the performance families, want 3", folded)
	}
}

// TestSweepRejectsNameCollision: a conv with a 40-cycle hit latency is
// also named conv-32KB. Keyed by name, it was served the baseline's
// result and read +0.00% on every family; now the sweep refuses it and
// names both machines, and under a name of its own it is simulated.
func TestSweepRejectsNameCollision(t *testing.T) {
	spec := Spec{
		Designs:   []sim.DesignSpec{{Kind: "conv", Config: json.RawMessage(`{"lat":40}`)}},
		PerFamily: 1,
		Params:    ParamSpec{Warmup: 5_000, Measure: 20_000},
	}
	_, err := (&Sweep{Spec: spec}).Run()
	if err == nil {
		t.Fatal("two machines named conv-32KB in one sweep were accepted")
	}
	for _, want := range []string{`"conv-32KB"`, `"Lat":4,`, `"Lat":40,`, `distinct "name"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}

	spec.Designs[0].Config = json.RawMessage(`{"lat":40,"name":"conv-lat40"}`)
	out := runSweep(t, &Sweep{Spec: spec})
	if text := out.Experiments[0].Output; strings.Contains(text, "+0.00%") {
		t.Errorf("the lat-40 design reads as the baseline:\n%s", text)
	}
}
