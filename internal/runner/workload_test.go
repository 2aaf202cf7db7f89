package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"ubscache/internal/sim"
	"ubscache/internal/workload"
	"ubscache/internal/workloadspec"
)

const champSimFixture = "../trace/testdata/tiny.champsim"

func mixWorkload(t *testing.T, seed int64) workloadspec.Workload {
	t.Helper()
	cfg, err := json.Marshal(workloadspec.MixConfig{Seed: seed, Clients: []workloadspec.ClientSpec{
		{Preset: "server_001", Weight: 2, Arrival: workloadspec.ArrivalSpec{Process: workloadspec.ArrivalPoisson, Burst: 500}},
		{Preset: "client_001", Arrival: workloadspec.ArrivalSpec{Burst: 400}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadspec.ResolveWorkload(workloadspec.Spec{Kind: "mix", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkloadKeyLegacyEquality pins the key-equality contract: the
// "preset:x" and bare "x" spellings of a generator-backed workload dedup
// to one entry, while source-backed workloads get their own stable keys.
func TestWorkloadKeyLegacyEquality(t *testing.T) {
	p, wcfg := testPoint(t, workload.FamilyServer, 0)
	bare, err := workloadspec.ParseWorkload(wcfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	prefixed, err := workloadspec.ParseWorkload("preset:" + wcfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	key := WorkloadKey(p, bare, "ubs")
	if k := WorkloadKey(p, prefixed, "ubs"); k != key {
		t.Errorf("preset: key %s != bare key %s", k, key)
	}

	mix := mixWorkload(t, 7)
	mk := WorkloadKey(p, mix, "ubs")
	if mk == key {
		t.Error("mix workload collides with the preset key")
	}
	if mk != WorkloadKey(p, mixWorkload(t, 7), "ubs") {
		t.Error("same mix spec, different keys")
	}
	if mk == WorkloadKey(p, mixWorkload(t, 8), "ubs") {
		t.Error("different mix seed, same key")
	}
	if mk == WorkloadKey(p, mix, "conv-32KB") {
		t.Error("different design, same key")
	}
}

// TestStoreWorkloadDedup: spec-backed workloads flow through the same
// memoizing store as presets — identical specs simulate once, distinct
// specs separately — via the SimWorkload seam that sees every kind.
func TestStoreWorkloadDedup(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	s.SimWorkload = func(_ context.Context, _ sim.Params, w workloadspec.Workload, design string, _ sim.FrontendFactory) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{Workload: w.Name, Design: design}, nil
	}
	p, _ := testPoint(t, workload.FamilyServer, 0)

	mix := mixWorkload(t, 7)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.RunWorkloadContext(ctx, p, mix, "ubs", nil); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("3 identical mix requests ran %d simulations, want 1", calls.Load())
	}
	if _, err := s.RunWorkloadContext(ctx, p, mixWorkload(t, 8), "ubs", nil); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("distinct mix seed did not run separately (%d calls)", calls.Load())
	}
}

// workloadSweepSpec crosses 2 designs × 2 workload specs (one inline
// mix, one ChampSim fixture) — the acceptance-criterion sweep shape.
func workloadSweepSpec(t *testing.T) Spec {
	t.Helper()
	mixSpec, err := workloadspec.ParseWorkloadSpec(`{"kind":"mix","config":{
		"seed": 11,
		"clients": [
			{"preset": "server_001", "weight": 2, "arrival": {"process": "poisson", "burst": 2000}},
			{"preset": "client_001", "arrival": {"process": "gamma", "cv": 3, "burst": 1500}}
		]}}`)
	if err != nil {
		t.Fatal(err)
	}
	csSpec, err := workloadspec.ParseWorkloadSpec("champsim:" + champSimFixture)
	if err != nil {
		t.Fatal(err)
	}
	ubs, err := sim.ParseDesignSpec("ubs")
	if err != nil {
		t.Fatal(err)
	}
	conv, err := sim.ParseDesignSpec("conv:64")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Designs:     []sim.DesignSpec{ubs, conv},
		Workloads:   []workloadspec.Spec{mixSpec, csSpec},
		Parallel:    4,
		Params:      ParamSpec{Warmup: 10_000, Measure: 30_000},
		OmitTimings: true,
	}
}

// TestSweepWorkloadsByteIdentical is the acceptance criterion: a sweep
// crossing designs × workload specs produces per-workload rows in
// results.json, and two fresh runs of the same spec (no shared store)
// produce byte-identical files.
func TestSweepWorkloadsByteIdentical(t *testing.T) {
	run := func(dir string) []byte {
		t.Helper()
		resultsPath := filepath.Join(dir, "results.json")
		sw := &Sweep{
			Spec:        workloadSweepSpec(t),
			Store:       NewStore(""),
			ResultsPath: resultsPath,
		}
		if _, err := sw.Run(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(resultsPath)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a := run(t.TempDir())
	b := run(t.TempDir())
	if string(a) != string(b) {
		t.Fatalf("two fresh runs of the same workload sweep differ:\n--- a\n%s\n--- b\n%s", a, b)
	}

	var rf ResultsFile
	if err := json.Unmarshal(a, &rf); err != nil {
		t.Fatal(err)
	}
	// 2 designs × 2 workloads, plus each workload's conv-32KB baseline.
	if len(rf.Runs) != 6 {
		t.Fatalf("expected 6 runs (2 workloads × {baseline, ubs, conv-64KB}), got %d", len(rf.Runs))
	}
	byWorkload := map[string]int{}
	for _, r := range rf.Runs {
		byWorkload[r.Workload]++
		if r.IPC <= 0 || r.Cycles == 0 {
			t.Errorf("run %s/%s has empty counters", r.Workload, r.Design)
		}
		if r.Seconds != 0 || r.FromCache {
			t.Errorf("run %s/%s leaks timing/provenance despite omit_timings", r.Workload, r.Design)
		}
	}
	if len(byWorkload) != 2 {
		t.Fatalf("expected rows for 2 workloads, got %v", byWorkload)
	}
	if n := byWorkload["tiny"]; n != 3 {
		t.Errorf("champsim fixture rows = %d, want 3 (%v)", n, byWorkload)
	}
	if rf.WallSeconds != 0 {
		t.Error("wall_seconds leaks despite omit_timings")
	}
}

// TestSweepWorkloadsValidation: workloads without designs are rejected at
// spec validation, not deep inside planning.
func TestSweepWorkloadsValidation(t *testing.T) {
	ws, err := workloadspec.ParseWorkloadSpec("server_001")
	if err != nil {
		t.Fatal(err)
	}
	s := Spec{Workloads: []workloadspec.Spec{ws}}
	if err := s.Validate(); err == nil {
		t.Error("workloads without designs validated, want error")
	}
}

// TestSweepConfigTwins: two "config" workloads that share a Name but not
// a Seed are two workloads. Identified by name, the sweep planned only
// the first twin's points; the second's ran during rendering, outside
// results.json, which listed 2 runs instead of 4.
func TestSweepConfigTwins(t *testing.T) {
	base, err := workload.ByName("spec_001")
	if err != nil {
		t.Fatal(err)
	}
	ubs, err := sim.ParseDesignSpec("ubs")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Designs:  []sim.DesignSpec{ubs},
		Parallel: 2,
		Params:   ParamSpec{Warmup: 5_000, Measure: 10_000},
	}
	p := spec.SimParams()
	// Each point's key and the cycles it simulates to on its own.
	want := make(map[string]uint64)
	for _, seed := range []int64{base.Seed, base.Seed + 1} {
		cfg := base
		cfg.Seed = seed
		raw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws := workloadspec.Spec{Kind: "config", Config: raw}
		spec.Workloads = append(spec.Workloads, ws)
		w, err := workloadspec.ResolveWorkload(ws)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []sim.Design{sim.MustDesign("conv:32"), sim.MustDesign("ubs")} {
			res, err := workloadspec.Run(context.Background(), p, w, d.Name, d.Factory)
			if err != nil {
				t.Fatal(err)
			}
			want[WorkloadKey(p, w, d.Name)] = res.Core.Cycles
		}
	}
	if len(want) != 4 {
		t.Fatalf("the twins' 4 points have %d distinct keys", len(want))
	}

	out := runSweep(t, &Sweep{Spec: spec})
	if len(out.Results.Runs) != 4 {
		t.Errorf("results.json lists %d runs, want 4", len(out.Results.Runs))
	}
	for _, run := range out.Results.Runs {
		cycles, ok := want[run.Key]
		if !ok {
			t.Errorf("run %s/%s has key %s, no twin point's", run.Workload, run.Design, run.Key)
		} else if run.Cycles != cycles {
			t.Errorf("run %s/%s ran %d cycles, its point runs %d", run.Workload, run.Design, run.Cycles, cycles)
		}
	}
	var rows []string
	for _, line := range strings.Split(out.Experiments[0].Output, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "spec_001") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 2 || rows[0] == rows[1] {
		t.Errorf("want two different spec_001 rows, got %q in\n%s", rows, out.Experiments[0].Output)
	}
}
