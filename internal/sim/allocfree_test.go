package sim

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"ubscache/internal/snap"
	"ubscache/internal/testutil"
	"ubscache/internal/workload"
)

// The measured windows of the steady-state ops, in instructions.
const (
	steadyInstrs      = 50_000
	nilObserverInstrs = 10_000
)

// steadyFamilies are the workloads the steady-state gate runs, by their
// first preset: server_001, front-end bound (the paper's target), and
// spec_001, loop code that the core and branch predictor dominate.
var steadyFamilies = []workload.Family{workload.FamilyServer, workload.FamilySPEC}

// steadyMachine builds the first preset of family on the given design,
// sampling storage efficiency every
// sampleInterval cycles (0: off), and drives it past the cold-start
// region: construction pools are sized, the caches and MSHRs have
// filled, and the walker's call stack has reached its working depth.
func steadyMachine(tb testing.TB, family workload.Family, spec DesignSpec, sampleInterval uint64) *Machine {
	tb.Helper()
	d, err := ResolveDesign(spec)
	if err != nil {
		tb.Fatal(err)
	}
	wcfg, err := workload.Preset(family, 0)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := workload.New(wcfg)
	if err != nil {
		tb.Fatal(err)
	}
	p := DefaultParams()
	p.Warmup = 0
	p.SampleInterval = sampleInterval
	m, err := NewMachine(context.Background(), p, src, wcfg.Name, d.Name, d.Factory)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Warmup(); err != nil {
		tb.Fatal(err)
	}
	if err := m.Advance(300_000); err != nil {
		tb.Fatal(err)
	}
	return m
}

// requireAdvanceAllocFree fails t unless advancing m by n instructions,
// runs times, performs no heap allocation. It collects the garbage its
// caller's setup left (a restored image, a second machine) first: a
// collection that ends inside the window counts the runtime's own
// end-of-cycle allocations (the unique package's map cleanup) against it.
func requireAdvanceAllocFree(t *testing.T, m *Machine, runs int, n uint64) {
	t.Helper()
	var advErr error
	runtime.GC()
	allocs := testing.AllocsPerRun(runs, func() {
		if err := m.Advance(n); err != nil {
			advErr = err
		}
	})
	if advErr != nil {
		t.Fatal(advErr)
	}
	if allocs != 0 {
		t.Errorf("steady-state Advance(%d) allocates %.1f allocs/run, want 0", n, allocs)
	}
}

// benchAdvance times Advance(n) on m, reporting allocations and the
// marginal cost per simulated instruction.
func benchAdvance(b *testing.B, m *Machine, n uint64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Advance(n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*n), "ns/instr")
}

// TestSimulateSteadyStateAllocFree pins the arena contract end to end: a
// measured simulation window — core cycle loop, FDIP fill, frontend
// fetches, L1-D, hierarchy, efficiency sampling — performs zero
// allocations at steady state, for every registered design kind on each
// of steadyFamilies. Every
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
			for _, f := range steadyFamilies {
				m := steadyMachine(t, f, DesignSpec{Kind: kind}, DefaultParams().SampleInterval)
				t.Run(m.workload, func(t *testing.T) {
					requireAdvanceAllocFree(t, m, 3, steadyInstrs)
					if err := m.Core().Validate(); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// TestResumedMachineAllocFree pins the arena contract on a resumed
// machine: the image of a steady machine, restored into a fresh one
// through RestoreEncoded (as checkpoint.Resume and the sweep store
// restore), advances a steady window without allocating and stays
// consistent. Fill and fetch write into their queues' tail slots, and
// the small-block fill buffer and the ACIC bypass buffer append to
// theirs, none of which grow, so the restore must keep the backings they
// were built with: snap reuses a slice's capacity where it suffices.
func TestResumedMachineAllocFree(t *testing.T) {
	for _, tc := range []struct {
		family workload.Family
		name   string
		spec   DesignSpec
	}{
		{workload.FamilyServer, "ubs", DesignSpec{Kind: "ubs"}},
		{workload.FamilyServer, "ubs-congruence", DesignSpec{Kind: "ubs", Config: json.RawMessage(`{"dead_block_ways":true,"admission_filter":true}`)}},
		{workload.FamilyServer, "smallblock", DesignSpec{Kind: "smallblock"}},
		{workload.FamilyServer, "distill", DesignSpec{Kind: "distill"}},
		{workload.FamilyServer, "acic", DesignSpec{Kind: "conv", Config: json.RawMessage(`{"acic":true}`)}},
		{workload.FamilySPEC, "conv", DesignSpec{Kind: "conv"}},
	} {
		src := steadyMachine(t, tc.family, tc.spec, DefaultParams().SampleInterval)
		t.Run(src.workload+"/"+tc.name, func(t *testing.T) {
			var img MachineState
			if err := src.Snapshot(&img); err != nil {
				t.Fatal(err)
			}
			state, err := snap.Marshal(&img)
			if err != nil {
				t.Fatal(err)
			}
			wcfg, err := workload.Preset(tc.family, 0)
			if err != nil {
				t.Fatal(err)
			}
			w, err := workload.New(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := ResolveDesign(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(context.Background(), src.p, w, src.workload, d.Name, d.Factory)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RestoreEncoded(state); err != nil {
				t.Fatal(err)
			}
			requireAdvanceAllocFree(t, m, 3, steadyInstrs)
			if err := m.Core().Validate(); err != nil {
				t.Error(err)
			}
			cfg := src.p.Core
			if got, want := cap(m.ftq.State().Queue), 2*cfg.FTQ.MaxInstrs; got != want {
				t.Errorf("restored FTQ queue capacity %d, want its construction capacity %d", got, want)
			}
			if got, want := cap(m.c.State().Decode), cfg.DecodeQueue+cfg.FetchWidth; got != want {
				t.Errorf("restored decode FIFO capacity %d, want its construction capacity %d", got, want)
			}
		})
	}
}

// TestNilObserverAllocFree pins the observability layer's zero-cost
// contract: with no observer and sampling off, the steady-state
// measurement loop on server_001 performs no allocations at all, for
// every registered design kind.
func TestNilObserverAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, kind := range DesignKinds() {
		t.Run(kind, func(t *testing.T) {
			requireAdvanceAllocFree(t, steadyMachine(t, workload.FamilyServer, DesignSpec{Kind: kind}, 0), 5, nilObserverInstrs)
		})
	}
}

// BenchmarkSimInstr times the steady-state window
// TestSimulateSteadyStateAllocFree gates on server_001, per design kind:
// the marginal cost of simulated instructions that sweeps and ubsd jobs
// pay.
func BenchmarkSimInstr(b *testing.B) {
	for _, kind := range DesignKinds() {
		b.Run(kind, func(b *testing.B) {
			benchAdvance(b, steadyMachine(b, workload.FamilyServer, DesignSpec{Kind: kind}, DefaultParams().SampleInterval), steadyInstrs)
		})
	}
}

// BenchmarkNilObserver times the window TestNilObserverAllocFree gates,
// per design kind.
func BenchmarkNilObserver(b *testing.B) {
	for _, kind := range DesignKinds() {
		b.Run(kind, func(b *testing.B) {
			benchAdvance(b, steadyMachine(b, workload.FamilyServer, DesignSpec{Kind: kind}, 0), nilObserverInstrs)
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
		m := steadyMachine(t, workload.FamilyServer, DesignSpec{Kind: kind}, DefaultParams().SampleInterval)
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
	runtime.GC() // a GC ending inside the window counts the runtime's own allocations
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
