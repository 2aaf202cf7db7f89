package workload

import (
	"runtime"
	"testing"

	"ubscache/internal/testutil"
)

// nextPresets are the workloads the walker's gate and benchmark run: a
// server (deep call trees, many indirect calls) and a SPEC preset (loop
// code).
var nextPresets = []string{"server_001", "spec_001"}

// steadyWalker returns a walker over the named preset, driven past its
// cold start so that its call stack has reached its working depth.
func steadyWalker(tb testing.TB, name string) *Walker {
	tb.Helper()
	w, err := New(presetConfig(tb, name))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		w.Next()
	}
	return w
}

// TestNextAllocFree pins the walker's emit path, the workload layer's
// part of every simulated instruction, to 0 allocs/op. AllocsPerRun
// rounds down per run, so a run is 100 instructions.
func TestNextAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	for _, name := range nextPresets {
		t.Run(name, func(t *testing.T) {
			w := steadyWalker(t, name)
			runtime.GC() // a GC ending inside the window counts the runtime's own allocations
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 100; i++ {
					w.Next()
				}
			})
			if allocs != 0 {
				t.Errorf("Next allocates %.0f objects per 100 instructions, want 0", allocs)
			}
		})
	}
}

// BenchmarkNext times the instructions TestNextAllocFree gates, one per
// op.
func BenchmarkNext(b *testing.B) {
	for _, name := range nextPresets {
		b.Run(name, func(b *testing.B) {
			w := steadyWalker(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Next()
			}
		})
	}
}
