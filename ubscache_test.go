package ubscache

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ubscache/internal/icache"
	"ubscache/internal/serve"
	"ubscache/internal/sim"
)

func quickTest() Options {
	p := Quick()
	p.Warmup = 50_000
	p.Measure = 150_000
	return p
}

func TestWorkloadResolution(t *testing.T) {
	w, err := ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "server_001" {
		t.Errorf("name %q", w.Name)
	}
	if _, err := ParseWorkload("bogus"); err == nil {
		t.Error("bogus workload accepted")
	}
	if len(Families()) != 8 {
		t.Errorf("families: %v", Families())
	}
	if len(WorkloadNames(FamilyServer)) == 0 {
		t.Error("no server workloads")
	}
}

// TestConventional32IsTableIBaseline pins that the generic size-derived
// Conventional(32) is exactly the paper's Table I baseline — the special
// case that used to hardwire kb==32 to Baseline32K is gone, so the
// equivalence must hold by construction (same geometry, same name, same
// simulation results).
func TestConventional32IsTableIBaseline(t *testing.T) {
	sized := icache.ConvSized(32 << 10)
	base := icache.Baseline32K()
	if sized.Name != base.Name || sized.Sets != base.Sets || sized.Ways != base.Ways ||
		sized.BlockSize != base.BlockSize || sized.Lat != base.Lat || sized.MSHRs != base.MSHRs {
		t.Fatalf("ConvSized(32KB) = %+v, want Table I baseline %+v", sized, base)
	}
	d := Conventional(32)
	if d.Name != "conv-32KB" {
		t.Fatalf("Conventional(32).Name = %q", d.Name)
	}

	w, err := ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateWorkload(d, w, quickTest())
	if err != nil {
		t.Fatal(err)
	}
	// The zero ConvDesign is Baseline32K itself.
	bd, err := sim.NewConvDesign(sim.ConvDesign{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SimulateWorkload(Design{base.Name, bd.Factory}, w, quickTest())
	if err != nil {
		t.Fatal(err)
	}
	if got.Core != want.Core || got.ICache != want.ICache {
		t.Errorf("Conventional(32) diverges from Baseline32K:\ngot  %+v\nwant %+v", got.Core, want.Core)
	}
}

func TestSimulateUBSvsBaseline(t *testing.T) {
	w, err := ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	base, err := SimulateWorkload(Conventional(32), w, quickTest())
	if err != nil {
		t.Fatal(err)
	}
	u, err := SimulateWorkload(UBS(), w, quickTest())
	if err != nil {
		t.Fatal(err)
	}
	if base.IPC() <= 0 || u.IPC() <= 0 {
		t.Fatalf("IPC base=%f ubs=%f", base.IPC(), u.IPC())
	}
	// The paper's core claim at the library level: UBS has far better
	// storage efficiency than the conventional baseline.
	be := avg(base.EffSamples)
	ue := avg(u.EffSamples)
	if ue <= be+0.15 {
		t.Errorf("UBS efficiency %.2f not clearly above baseline %.2f", ue, be)
	}
	if u.UBS == nil {
		t.Error("UBS report missing extended stats")
	}
}

func avg(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	if len(v) == 0 {
		return 0
	}
	return s / float64(len(v))
}

func TestAllDesignsRun(t *testing.T) {
	w, err := ParseWorkload("client_001")
	if err != nil {
		t.Fatal(err)
	}
	designs := []Design{
		Conventional(16), Conventional(32), Conventional(64),
		UBS(), UBSSized(20), SmallBlock(16), SmallBlock(32),
		LineDistillation(), GHRP(), ACIC(),
		UBSCustom(DefaultUBSConfig()),
	}
	opts := quickTest()
	opts.Warmup = 20_000
	opts.Measure = 60_000
	for _, d := range designs {
		rep, err := SimulateWorkload(d, w, opts)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if rep.IPC() <= 0 || rep.IPC() > 4 {
			t.Errorf("%s: IPC %f implausible", d.Name, rep.IPC())
		}
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	w, err := ParseWorkload("spec_001")
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := w.Config() // a preset is generator-backed
	src, err := NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.ubst.gz")
	n, err := WriteTrace(path, src, 50_000)
	if err != nil || n != 50_000 {
		t.Fatalf("WriteTrace: %d, %v", n, err)
	}
	r, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	opts := quickTest()
	opts.Warmup = 10_000
	opts.Measure = 20_000
	rep, err := SimulateSource(Conventional(32), r, "t", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Commit is 4-wide, so the run may overshoot by up to 3 instructions.
	if rep.Core.Instructions < 20_000 || rep.Core.Instructions > 20_003 {
		t.Errorf("retired %d", rep.Core.Instructions)
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 17 {
		t.Fatalf("only %d experiments", len(ids))
	}
	out, err := RunExperiment("table2", ExperimentOptions{Options: quickTest(), PerFamily: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4, 4, 8, 8, 8, 12, 12, 16, 24, 32, 36, 36, 52, 64, 64, 64") {
		t.Errorf("table2 output:\n%s", out)
	}
	if _, err := RunExperiment("nope", ExperimentOptions{Options: quickTest(), PerFamily: 1}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunExperimentCancelled pins the context wiring: RunExperiment
// hands ExperimentOptions.Context to every simulation point it runs, so
// an already-cancelled context fails the artifact with context.Canceled.
func TestRunExperimentCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunExperiment("fig9", ExperimentOptions{Options: quickTest(), PerFamily: 1, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunExperiment returned %v, want context.Canceled", err)
	}
}

// TestJobServerFacade runs a real (tiny) simulation job through the
// facade's job server: submit, wait for the terminal state, read the
// report, and confirm a duplicate submission is served from the cache.
func TestJobServerFacade(t *testing.T) {
	srv := NewJobServer(JobServerConfig{
		Store:   NewResultStore(""),
		Workers: 2,
		Params:  quickTest(),
	})
	defer srv.Close()

	req := serve.SubmitRequest{Design: "conv:32", Workload: "server_001", Priority: serve.Interactive}
	sub, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, sub)
	if st.State != serve.JobDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	rep, raw, ok := sub.Result()
	if !ok || rep.Core.Instructions == 0 || len(raw) == 0 {
		t.Fatalf("no usable report: ok=%v %+v", ok, rep)
	}

	dup, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Key() != sub.Key() {
		t.Fatalf("duplicate submission key %s != %s", dup.Key(), sub.Key())
	}
	if st := waitTerminal(t, dup); st.State != serve.JobDone || !st.FromCache {
		t.Fatalf("duplicate ended %s, from_cache=%v; want done from cache", st.State, st.FromCache)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func waitTerminal(t *testing.T, j *serve.Job) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.Status(); st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", j.ID())
	return serve.JobStatus{}
}
