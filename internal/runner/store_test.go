package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubscache/internal/core"
	"ubscache/internal/sim"
	"ubscache/internal/workload"
	"ubscache/internal/workloadspec"
)

func testPoint(t *testing.T, family workload.Family, idx int) (sim.Params, workload.Config) {
	t.Helper()
	p := sim.DefaultParams()
	p.Warmup = 10_000
	p.Measure = 20_000
	wcfg, err := workload.Preset(family, idx)
	if err != nil {
		t.Fatal(err)
	}
	return p, wcfg
}

// runPoint requests a generator-backed point from s.
func runPoint(s *Store, p sim.Params, wcfg workload.Config, design string) (sim.Result, error) {
	return s.RunWorkloadContext(context.Background(), p, workloadspec.FromConfig(wcfg), design, nil)
}

// stubSim returns a SimWorkload hook that counts invocations and
// fabricates a deterministic result after an optional delay.
func stubSim(calls *atomic.Int64, delay time.Duration) func(context.Context, sim.Params, workloadspec.Workload, string, sim.FrontendFactory) (sim.Result, error) {
	return func(_ context.Context, p sim.Params, w workloadspec.Workload, design string, _ sim.FrontendFactory) (sim.Result, error) {
		calls.Add(1)
		time.Sleep(delay)
		return sim.Result{
			Workload: w.Name,
			Design:   design,
			Core:     core.Stats{Cycles: 1000, Instructions: 1500},
		}, nil
	}
}

// TestStoreSingleflight is the concurrent-memoization guarantee: N
// goroutines requesting the same (params, workload, design) key must
// trigger exactly one simulation, via in-flight tracking rather than a
// post-hoc cache.
func TestStoreSingleflight(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	// The delay keeps the first simulation in flight while every other
	// goroutine arrives, so a cache-check-then-run race would overcount.
	s.SimWorkload = stubSim(&calls, 50*time.Millisecond)
	p, wcfg := testPoint(t, workload.FamilyServer, 0)

	const n = 32
	var wg sync.WaitGroup
	results := make([]sim.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runPoint(s, p, wcfg, "ubs")
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent requests ran %d simulations, want 1", n, got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Core.Cycles != 1000 || results[i].Workload != wcfg.Name {
			t.Fatalf("request %d got %+v", i, results[i])
		}
	}
}

func TestStoreDistinctKeysRunSeparately(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	s.SimWorkload = stubSim(&calls, 0)
	p, wcfg := testPoint(t, workload.FamilyServer, 0)
	p2 := p
	p2.Measure = 30_000
	wcfg2, err := workload.Preset(workload.FamilyServer, 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		p      sim.Params
		w      workload.Config
		design string
	}{
		{p, wcfg, "ubs"},
		{p, wcfg, "conv-32KB"}, // same workload, other design
		{p, wcfg2, "ubs"},      // other workload
		{p2, wcfg, "ubs"},      // other params
	} {
		if _, err := runPoint(s, c.p, c.w, c.design); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("4 distinct points ran %d simulations", got)
	}
	// Re-running any of them hits the memo.
	if _, err := runPoint(s, p, wcfg, "ubs"); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("memoized rerun triggered a simulation (%d calls)", got)
	}
}

func TestKeyStability(t *testing.T) {
	p, wcfg := testPoint(t, workload.FamilyServer, 0)
	w := workloadspec.FromConfig(wcfg)
	k1 := WorkloadKey(p, w, "ubs")
	k2 := WorkloadKey(p, w, "ubs")
	if k1 != k2 {
		t.Fatalf("same inputs, different keys: %s vs %s", k1, k2)
	}
	if k := WorkloadKey(p, w, "conv-32KB"); k == k1 {
		t.Fatal("different design, same key")
	}
	p2 := p
	p2.Warmup++
	if k := WorkloadKey(p2, w, "ubs"); k == k1 {
		t.Fatal("different params, same key")
	}
	wcfg2 := wcfg
	wcfg2.Seed++
	if k := WorkloadKey(p, workloadspec.FromConfig(wcfg2), "ubs"); k == k1 {
		t.Fatal("different workload, same key")
	}
}

// TestStoreDiskCache checks persistence: a second store sharing the cache
// dir serves the result without simulating, so interrupted sweeps resume.
func TestStoreDiskCache(t *testing.T) {
	dir := t.TempDir()
	p, wcfg := testPoint(t, workload.FamilyServer, 0)

	var calls1 atomic.Int64
	s1 := NewStore(dir)
	s1.SimWorkload = stubSim(&calls1, 0)
	res1, err := runPoint(s1, p, wcfg, "ubs")
	if err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != 1 {
		t.Fatalf("first store ran %d simulations", calls1.Load())
	}

	var calls2 atomic.Int64
	s2 := NewStore(dir)
	s2.SimWorkload = stubSim(&calls2, 0)
	res2, err := runPoint(s2, p, wcfg, "ubs")
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("second store ran %d simulations despite the disk cache", calls2.Load())
	}
	if res1.Core != res2.Core || res1.Workload != res2.Workload || res1.Design != res2.Design {
		t.Fatalf("disk round-trip changed the result: %+v vs %+v", res1, res2)
	}
	key := WorkloadKey(p, workloadspec.FromConfig(wcfg), "ubs")
	if !s2.Meta(key).Disk {
		t.Error("disk hit not recorded in meta")
	}
}

// TestStorePanicIsolation: a panicking simulation surfaces as an error
// (for every waiter) and is retried on the next request.
func TestStorePanicIsolation(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	s.SimWorkload = func(_ context.Context, p sim.Params, w workloadspec.Workload, design string, _ sim.FrontendFactory) (sim.Result, error) {
		if calls.Add(1) == 1 {
			panic("synthetic failure")
		}
		return sim.Result{Workload: w.Name, Design: design}, nil
	}
	p, wcfg := testPoint(t, workload.FamilyServer, 0)
	if _, err := runPoint(s, p, wcfg, "ubs"); err == nil {
		t.Fatal("panic did not surface as an error")
	}
	// Errors are not cached: the retry succeeds.
	if _, err := runPoint(s, p, wcfg, "ubs"); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("expected 2 simulation attempts, got %d", calls.Load())
	}
}

func TestStoreErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	s.SimWorkload = func(context.Context, sim.Params, workloadspec.Workload, string, sim.FrontendFactory) (sim.Result, error) {
		if calls.Add(1) == 1 {
			return sim.Result{}, fmt.Errorf("transient")
		}
		return sim.Result{Workload: "w", Design: "d"}, nil
	}
	p, wcfg := testPoint(t, workload.FamilyServer, 0)
	if _, err := runPoint(s, p, wcfg, "ubs"); err == nil {
		t.Fatal("error swallowed")
	}
	if _, err := runPoint(s, p, wcfg, "ubs"); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
}
