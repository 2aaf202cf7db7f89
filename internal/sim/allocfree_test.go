package sim

import (
	"context"
	"sync"
	"testing"
)

// steadyMachine builds a machine for the given registered design kind and
// drives it past the cold-start region: construction pools are sized, the
// caches and MSHRs have filled, and the walker's call stack has reached
// its working depth.
func steadyMachine(t *testing.T, kind string) *Machine {
	t.Helper()
	d, err := ResolveDesign(DesignSpec{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Warmup = 0
	m, err := NewMachine(context.Background(), p, mustWalker(t), "server_001", d.Name, d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Warmup(); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(300_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSimulateSteadyStateAllocFree pins the arena contract end to end: a
// measured simulation window — core cycle loop, FDIP fill, frontend
// fetches, L1-D, hierarchy, efficiency sampling — performs zero
// allocations at steady state, for every registered design kind. Every
// pool (ROB, in-flight wheel and its far list, decode FIFO, FTQ backing,
// walker stack, efficiency window) is pre-sized at construction, so the marginal
// cost of a simulated instruction never includes the allocator.
func TestSimulateSteadyStateAllocFree(t *testing.T) {
	kinds := DesignKinds()
	if len(kinds) < 4 {
		t.Fatalf("expected at least the four paper design kinds, have %v", kinds)
	}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			m := steadyMachine(t, kind)
			var advErr error
			allocs := testing.AllocsPerRun(3, func() {
				if err := m.Advance(50_000); err != nil {
					advErr = err
				}
			})
			if advErr != nil {
				t.Fatal(advErr)
			}
			if allocs != 0 {
				t.Errorf("steady-state Advance allocates %.1f allocs/run, want 0", allocs)
			}
			if err := m.Core().Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSteadyStatePoolsConcurrent runs one machine per design kind in
// parallel goroutines. The pools are strictly per-machine; under
// `go test -race` this verifies the arena restructuring introduced no
// hidden shared state between machines.
func TestSteadyStatePoolsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, kind := range DesignKinds() {
		m := steadyMachine(t, kind)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Advance(100_000); err != nil {
				errs <- err
				return
			}
			if err := m.Core().Validate(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEffSamplesBoundedWindow is the regression test for the unbounded
// Machine.effSamples growth: with per-cycle sampling the window must
// decimate in place, keep its pre-sized backing array, and still span the
// whole run.
func TestEffSamplesBoundedWindow(t *testing.T) {
	p := DefaultParams()
	p.Warmup = 0
	p.SampleInterval = 1 // sample every cycle to overflow the window fast
	d, err := ResolveDesign(DesignSpec{Kind: "ubs"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(context.Background(), p, mustWalker(t), "server_001", d.Name, d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Warmup(); err != nil {
		t.Fatal(err)
	}
	// Run well past effWindowCap cycles so the window must decimate.
	if err := m.Advance(3 * effWindowCap); err != nil {
		t.Fatal(err)
	}
	if cap(m.run.EffSamples) != effWindowCap {
		t.Errorf("window backing capacity %d, want %d", cap(m.run.EffSamples), effWindowCap)
	}
	if len(m.run.EffSamples) > effWindowCap {
		t.Errorf("window holds %d samples, cap is %d", len(m.run.EffSamples), effWindowCap)
	}
	if len(m.run.EffSamples) < effWindowCap/2 {
		t.Errorf("window holds only %d samples; decimation should keep it at least half full", len(m.run.EffSamples))
	}
	if m.run.EffStride < 2 {
		t.Errorf("stride %d: the window never decimated despite %d+ samples", m.run.EffStride, m.run.EffTick)
	}
	for _, e := range m.run.EffSamples {
		if e < 0 || e > 1 {
			t.Fatalf("sample %f out of range", e)
		}
	}

	// Steady-state memory is pinned: with the window already cycling
	// through decimation, further sampling performs no allocations and the
	// backing array never grows.
	var advErr error
	allocs := testing.AllocsPerRun(3, func() {
		if err := m.Advance(2 * effWindowCap); err != nil {
			advErr = err
		}
	})
	if advErr != nil {
		t.Fatal(advErr)
	}
	if allocs != 0 {
		t.Errorf("sampling at full window allocates %.1f allocs/run, want 0", allocs)
	}
	if cap(m.run.EffSamples) != effWindowCap {
		t.Errorf("window backing grew to %d, want pinned at %d", cap(m.run.EffSamples), effWindowCap)
	}

	res := m.Finish()
	if len(res.EffSamples) != len(m.run.EffSamples) {
		t.Errorf("Result carries %d samples, window holds %d", len(res.EffSamples), len(m.run.EffSamples))
	}
}
