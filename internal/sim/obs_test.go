package sim

import (
	"context"
	"errors"
	"testing"

	"ubscache/internal/obs"
	"ubscache/internal/testutil"
	"ubscache/internal/workload"
)

// collector retains copies of every observer event for assertions.
type collector struct {
	info  obs.RunInfo
	reg   *obs.Registry
	beats []obs.Heartbeat
	final *obs.Heartbeat
	err   error
	ended int
}

func (c *collector) BeginRun(info obs.RunInfo, reg *obs.Registry) { c.info, c.reg = info, reg }
func (c *collector) Heartbeat(hb *obs.Heartbeat)                  { c.beats = append(c.beats, *hb) }
func (c *collector) EndRun(final *obs.Heartbeat, err error) {
	f := *final
	c.final, c.err = &f, err
	c.ended++
}

func obsParams() Params {
	p := DefaultParams()
	p.Warmup = 20_000
	p.Measure = 60_000
	p.HeartbeatEvery = 10_000
	return p
}

func TestHeartbeatCadence(t *testing.T) {
	wcfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := &collector{}
	p := obsParams()
	p.Observer = col
	res, err := Run(p, wcfg, "ubs", ubsFactory)
	if err != nil {
		t.Fatal(err)
	}

	if col.info.Workload != wcfg.Name || col.info.Design != "ubs" {
		t.Errorf("BeginRun info = %+v", col.info)
	}
	if col.info.HeartbeatEvery != 10_000 {
		t.Errorf("HeartbeatEvery = %d", col.info.HeartbeatEvery)
	}
	// At least one heartbeat per interval of the measured cycles, across
	// both phases; cycle counts exceed instruction counts on every design,
	// so the run spans well over 8 intervals.
	if len(col.beats) < 8 {
		t.Fatalf("only %d heartbeats", len(col.beats))
	}
	if col.ended != 1 {
		t.Fatalf("EndRun called %d times", col.ended)
	}
	if col.err != nil {
		t.Errorf("EndRun err = %v", col.err)
	}
	if col.final == nil || col.final.Phase != "final" {
		t.Errorf("final heartbeat = %+v", col.final)
	}

	sawWarm, sawMeasure := false, false
	for i, hb := range col.beats {
		if hb.Seq != i+1 {
			t.Errorf("beat %d: Seq = %d", i, hb.Seq)
		}
		switch hb.Phase {
		case "warmup":
			sawWarm = true
			if sawMeasure {
				t.Error("warmup heartbeat after measurement began")
			}
			if hb.Target != p.Warmup {
				t.Errorf("warmup target = %d", hb.Target)
			}
		case "measure":
			sawMeasure = true
			if hb.Target != p.Measure {
				t.Errorf("measure target = %d", hb.Target)
			}
		default:
			t.Errorf("beat %d: phase %q", i, hb.Phase)
		}
		if hb.MSHROccupancy < 0 {
			t.Errorf("beat %d: MSHR occupancy unreported", i)
		}
	}
	if !sawWarm || !sawMeasure {
		t.Errorf("phases seen: warmup=%v measure=%v", sawWarm, sawMeasure)
	}

	last := col.beats[len(col.beats)-1]
	if last.IPC <= 0 || last.RollingIPC <= 0 {
		t.Errorf("IPC=%v RollingIPC=%v", last.IPC, last.RollingIPC)
	}
	// UBS designs report the predictor hit rate.
	if last.PredictorHitRate < 0 {
		t.Error("predictor hit rate unreported on UBS")
	}

	// The registry snapshot agrees with the final result: every source
	// that reaches Result counts the measured window only.
	snap := col.reg.Snapshot()
	if v, ok := snap.Get("heartbeats"); !ok || v != float64(len(col.beats)) {
		t.Errorf("heartbeats metric = %v, want %d", v, len(col.beats))
	}
	if v, ok := snap.Get("core_instructions"); !ok || v != float64(res.Core.Instructions) {
		t.Errorf("core_instructions = %v, want %d", v, res.Core.Instructions)
	}
	if v, ok := snap.Get("icache_fetches"); !ok || v != float64(res.ICache.Fetches) {
		t.Errorf("icache_fetches = %v, want %d", v, res.ICache.Fetches)
	}
	if v, ok := snap.Get("bpu_mispredictions"); !ok || v != float64(res.BPU.Mispredictions) {
		t.Errorf("bpu_mispredictions = %v, want %d", v, res.BPU.Mispredictions)
	}
	if v, ok := snap.Get("ubs_predictor_hits"); !ok || v != float64(res.UBS.PredictorHits) {
		t.Errorf("ubs_predictor_hits = %v, want %d", v, res.UBS.PredictorHits)
	}
	if _, ok := snap.Get("dram_accesses"); !ok {
		t.Error("dram source not registered")
	}
}

// TestHeartbeatMatchesRegistry pins that the two observability views
// never contradict each other: at every measure-phase heartbeat the
// heartbeat's icache counters equal the registry's icache source.
func TestHeartbeatMatchesRegistry(t *testing.T) {
	wcfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, design := range []string{"conv:32", "ubs"} {
		d, err := ParseDesign(design)
		if err != nil {
			t.Fatal(err)
		}
		var reg *obs.Registry
		measured := 0
		p := obsParams()
		p.Observer = obs.FuncObserver{
			OnBegin: func(_ obs.RunInfo, r *obs.Registry) { reg = r },
			OnHeartbeat: func(hb *obs.Heartbeat) {
				if hb.Phase != "measure" {
					return
				}
				measured++
				snap := reg.Snapshot()
				for _, c := range []struct {
					metric string
					hb     uint64
				}{{"icache_fetches", hb.Fetches}, {"icache_misses", hb.Misses}} {
					if v, ok := snap.Get(c.metric); !ok || v != float64(c.hb) {
						t.Errorf("%s beat %d: %s = %v, heartbeat says %d", design, hb.Seq, c.metric, v, c.hb)
					}
				}
			},
		}
		if _, err := Run(p, wcfg, d.Name, d.Factory); err != nil {
			t.Fatal(err)
		}
		if measured == 0 {
			t.Fatalf("%s: no measure-phase heartbeats", design)
		}
	}
}

// TestObserverDoesNotChangeResults pins that observability is purely
// passive: the same run with and without an observer retires the same
// cycle and miss counts.
func TestObserverDoesNotChangeResults(t *testing.T) {
	wcfg, err := workload.Preset(workload.FamilyClient, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(obsParams(), wcfg, "ubs", ubsFactory)
	if err != nil {
		t.Fatal(err)
	}
	p := obsParams()
	p.Observer = &collector{}
	withObs, err := Run(p, wcfg, "ubs", ubsFactory)
	if err != nil {
		t.Fatal(err)
	}
	if base.Core != withObs.Core || base.ICache != withObs.ICache {
		t.Errorf("observer changed results:\nbase %+v\nobs  %+v", base.Core, withObs.Core)
	}
}

func TestRunContextCancel(t *testing.T) {
	wcfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	col := &collector{}
	p := obsParams()
	p.Observer = obs.Observers{col, obs.FuncObserver{
		OnHeartbeat: func(hb *obs.Heartbeat) {
			if hb.Seq == 2 {
				cancel()
			}
		},
	}}
	_, err = RunContext(ctx, p, wcfg, "ubs", ubsFactory)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(col.err, context.Canceled) {
		t.Errorf("EndRun err = %v, want context.Canceled", col.err)
	}
	if col.ended != 1 {
		t.Errorf("EndRun called %d times", col.ended)
	}
	// Cancellation lands at the heartbeat that triggered it.
	if len(col.beats) != 2 {
		t.Errorf("heartbeats before cancel = %d, want 2", len(col.beats))
	}
}

// TestRunContextCancelDuringWarmup covers the chunked warmup path.
func TestRunContextCancelDuringWarmup(t *testing.T) {
	wcfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first cycle
	p := obsParams()
	_, err = RunContext(ctx, p, wcfg, "ubs", ubsFactory)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMachineStepping exercises the incremental Machine surface directly.
func TestMachineStepping(t *testing.T) {
	wcfg, err := workload.Preset(workload.FamilySPEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Warmup = 10_000
	p.Measure = 0 // driven manually below
	m, err := NewMachine(context.Background(), p, src, wcfg.Name, "ubs", ubsFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Warmup(); err != nil {
		t.Fatal(err)
	}
	if err := m.Warmup(); err != nil { // idempotent
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Advance(5_000); err != nil {
			t.Fatal(err)
		}
	}
	res := m.Finish()
	// Commit is 4-wide, so each Advance may overshoot by up to 3.
	if res.Core.Instructions < 15_000 || res.Core.Instructions > 15_009 {
		t.Errorf("instructions = %d", res.Core.Instructions)
	}
	if m.Core() == nil || m.Frontend() == nil {
		t.Error("accessors returned nil")
	}
}

// TestNilObserverAllocFree pins the tentpole's zero-cost contract: with no
// observer and sampling off, the steady-state measurement loop performs no
// allocations at all.
func TestNilObserverAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	wcfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Warmup = 0
	p.SampleInterval = 0
	m, err := NewMachine(context.Background(), p, src, wcfg.Name, "ubs", ubsFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Warmup(); err != nil {
		t.Fatal(err)
	}
	// Reach steady state: cold-start fills grow MSHR/cache side structures.
	if err := m.Advance(200_000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := m.Advance(10_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-observer Advance allocated %.1f allocs/run, want 0", allocs)
	}
}
