package exp

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ubscache/internal/sim"
	"ubscache/internal/workload"
	"ubscache/internal/workloadspec"
)

// tinyOpts keeps experiment tests fast: 1 workload per family and short
// runs. Its Exec and Aux are serial memos, test-local stand-ins for
// runner.Store (which imports exp), so a shared Runner simulates each
// repeated point once.
func tinyOpts() Options {
	return memoOpts(nil)
}

// memoOpts is tinyOpts whose Aux memo counts the passes it computes in
// *passes (when non-nil).
func memoOpts(passes *int) Options {
	p := sim.DefaultParams()
	p.Warmup = 50_000
	p.Measure = 150_000
	memo := make(map[string]sim.Result)
	exec := func(p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, error) {
		key := w.Ident() + "|" + design
		if res, ok := memo[key]; ok {
			return res, nil
		}
		res, err := workloadspec.Run(context.Background(), p, w, design, factory)
		if err == nil {
			memo[key] = res
		}
		return res, err
	}
	auxMemo := make(map[string][]byte)
	aux := func(kind string, cfg workload.Config, instrs uint64, pass func() ([]byte, error)) ([]byte, error) {
		key := fmt.Sprintf("%s|%s|%d", kind, cfg.Name, instrs)
		if data, ok := auxMemo[key]; ok {
			return data, nil
		}
		if passes != nil {
			*passes++
		}
		data, err := pass()
		if err == nil {
			auxMemo[key] = data
		}
		return data, err
	}
	return Options{Params: p, PerFamily: 1, Exec: exec, Aux: aux}
}

// render runs one experiment on a fresh Runner.
func render(id string, opts Options) (string, error) {
	e, err := ByID(id)
	if err != nil {
		return "", err
	}
	return e.Run(NewRunner(opts))
}

// countingOpts is tinyOpts whose Exec counts its calls and fabricates
// results; capture must never call it.
func countingOpts(calls *int) Options {
	o := tinyOpts()
	o.Exec = func(_ sim.Params, w workloadspec.Workload, design string, _ sim.FrontendFactory) (sim.Result, error) {
		*calls++
		return sim.Result{Workload: w.Name, Design: design}, nil
	}
	return o
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig4", "table1", "table2", "table3", "table4",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig15", "fig16", "cvp", "x86", "congruence",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry), len(want))
	}
	for _, e := range Registry {
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig10"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		out, err := render(id, tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short:\n%s", id, out)
		}
	}
	// Table III must reproduce the paper's totals.
	out, _ := render("table3", tinyOpts())
	for _, want := range []string{"33.875", "36.33", "2.46"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 missing %q:\n%s", want, out)
		}
	}
	out, _ = render("table4", tinyOpts())
	for _, want := range []string{"0.09", "0.12", "0.77", "1.71", "0.131", "0.141"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 missing %q:\n%s", want, out)
		}
	}
}

func TestFig1SmallRun(t *testing.T) {
	opts := tinyOpts()
	out, err := render("fig1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "server") || !strings.Contains(out, "CDF") {
		t.Errorf("fig1 output:\n%s", out)
	}
}

func TestFig4SmallRun(t *testing.T) {
	out, err := render("fig4", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 miss") {
		t.Errorf("fig4 output:\n%s", out)
	}
}

func TestEfficiencyAndPerfExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("timed simulations")
	}
	r := NewRunner(tinyOpts())
	for _, id := range []string{"fig2", "fig7", "fig8", "fig9", "fig10"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(r) // shared runner: results memoized across ids
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 50 {
			t.Errorf("%s output too short:\n%s", id, out)
		}
	}
}

// TestParamsPartialOverride is the regression test for the Options.params()
// footgun: a custom Params that sets some fields but leaves Measure (or any
// other field) zero used to be replaced wholesale with DefaultParams,
// silently discarding the caller's overrides.
func TestParamsPartialOverride(t *testing.T) {
	d := sim.DefaultParams()

	// Zero Options still means "all defaults".
	if got := (Options{}).params(); got != d {
		t.Errorf("zero options params = %+v", got)
	}

	// Custom Warmup + Core with Measure unset: both customizations must
	// survive, and only the unset fields pick up defaults.
	var p sim.Params
	p.Warmup = 123_456
	p.Core = d.Core
	p.Core.ROBSize = 512
	got := Options{Params: p}.params()
	if got.Warmup != 123_456 {
		t.Errorf("custom warmup discarded: %d", got.Warmup)
	}
	if got.Core.ROBSize != 512 {
		t.Errorf("custom core config discarded: %+v", got.Core)
	}
	if got.Measure != d.Measure {
		t.Errorf("unset measure not defaulted: %d", got.Measure)
	}
	if got.Hierarchy != d.Hierarchy || got.L1D != d.L1D || got.BPU != d.BPU {
		t.Errorf("unset sections not defaulted: %+v", got)
	}
	// DataCache is kept verbatim (false is a meaningful setting, so it
	// cannot double as "unset"); callers wanting the default start from
	// sim.DefaultParams() and tweak.
	if got.DataCache {
		t.Error("DataCache should be kept verbatim, not defaulted")
	}

	// The documented pitfall from the issue: only Measure customized.
	var p2 sim.Params
	p2.Measure = 42_000
	if got := (Options{Params: p2}.params()); got.Measure != 42_000 {
		t.Errorf("custom measure discarded: %d", got.Measure)
	}
}

// TestCaptureTimedExperiment: capturing fig10 with one workload per family
// yields the 9 simulation points (3 families × 3 designs) without running
// any simulation.
func TestCaptureTimedExperiment(t *testing.T) {
	calls := 0
	r := NewRunner(countingOpts(&calls))
	e, err := ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	sims, auxes, err := r.Capture(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != 9 {
		t.Fatalf("fig10 captured %d sim points, want 9", len(sims))
	}
	if len(auxes) != 0 {
		t.Errorf("fig10 captured %d aux points, want 0", len(auxes))
	}
	designs := map[string]int{}
	for _, sp := range sims {
		designs[sp.Design]++
		if sp.Params.Warmup != tinyOpts().Params.Warmup {
			t.Errorf("captured params drifted: %+v", sp.Params)
		}
		if sp.Factory == nil || sp.Workload.Name == "" {
			t.Errorf("incomplete point: %+v", sp)
		}
	}
	for _, d := range []string{"conv-32KB", "conv-64KB", "ubs"} {
		if designs[d] != 3 {
			t.Errorf("design %s captured %d times, want 3", d, designs[d])
		}
	}
	if calls != 0 {
		t.Errorf("capture executed %d simulation points", calls)
	}
	if r.capturing {
		t.Error("capture mode left enabled")
	}
}

// TestCaptureFunctionalExperiment: fig1 is all functional passes — capture
// must surface them as aux points (one per workload) and no sim points,
// and a captured point runs through Opts.Aux, whose memo serves the later
// render.
func TestCaptureFunctionalExperiment(t *testing.T) {
	calls, passes := 0, 0
	opts := memoOpts(&passes)
	opts.Exec = countingOpts(&calls).Exec
	r := NewRunner(opts)
	e, err := ByID("fig1")
	if err != nil {
		t.Fatal(err)
	}
	sims, auxes, err := r.Capture(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != 0 {
		t.Errorf("fig1 captured %d sim points, want 0", len(sims))
	}
	if len(auxes) != 4 {
		t.Fatalf("fig1 captured %d aux points, want 4 (one per family)", len(auxes))
	}
	if calls != 0 {
		t.Errorf("capture executed %d simulation points", calls)
	}
	if passes != 0 {
		t.Errorf("capture computed %d functional passes", passes)
	}
	for _, ax := range auxes {
		if err := ax.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if passes != 4 {
		t.Fatalf("running the captured points computed %d passes, want 4", passes)
	}
	if _, err := e.Run(r); err != nil {
		t.Fatal(err)
	}
	if passes != 4 {
		t.Errorf("render recomputed memoized passes (%d computed, want 4)", passes)
	}
}

func TestCoverage(t *testing.T) {
	if coverage(0, 5) != 0 {
		t.Error("zero-base coverage")
	}
	if got := coverage(100, 80); got < 0.1999 || got > 0.2001 {
		t.Errorf("coverage = %f", got)
	}
}

// TestFoldNames: registry aliases of one machine run under the name it
// was first requested by on each workload, hand-built designs keep their
// names, and one name for two machines is refused.
func TestFoldNames(t *testing.T) {
	serverCfg, _ := workload.Preset(workload.FamilyServer, 0)
	specCfg, _ := workload.Preset(workload.FamilySPEC, 0)
	server, specW := workloadspec.FromConfig(serverCfg), workloadspec.FromConfig(specCfg)
	r := NewRunner(tinyOpts())
	hand := Design{Name: "hand"}
	for _, c := range []struct {
		w      workloadspec.Workload
		d      Design
		folded string
	}{
		{server, designUBS(), "ubs"},
		{server, sim.MustDesign("ubs:32"), "ubs"},
		{server, sim.MustDesign("ubs-16way-c1"), "ubs"},
		{specW, sim.MustDesign("ubs:32"), "ubs-32KB"},
		{specW, designUBS(), "ubs-32KB"},
		{server, hand, "hand"},
		{server, hand, "hand"},
	} {
		got, err := r.fold(c.w, c.d)
		if err != nil || got != c.folded {
			t.Errorf("%s on %s folded to %q, %v; want %q", c.d.Name, c.w.Name, got, err, c.folded)
		}
	}
	lat40, err := sim.NewConvDesign(sim.ConvDesign{Lat: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.fold(server, designConv32()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fold(server, lat40); err == nil {
		t.Error("a second machine named conv-32KB was folded")
	}
	if _, err := r.fold(server, Design{Name: "ubs"}); err == nil {
		t.Error("a hand-built design named like a registry one was folded")
	}
}
