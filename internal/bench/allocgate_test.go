package bench

import (
	"testing"
)

// TestHotPathAllocGate enforces the AllocFree contract programmatically:
// every case that declares a 0 allocs/op steady state is run under
// testing.Benchmark and its measured AllocsPerOp asserted, replacing the
// old CI gates that grepped benchmark output. Together with the
// packages' own AllocFree tests it is the only alloc check: it sees
// every allocation on the measured path, including in callees.
func TestHotPathAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate benchmarks are not short")
	}
	for _, c := range Cases() {
		if !c.AllocFree {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			// Not parallel: allocation counts come from process-global
			// memstats, so a concurrent test's allocations would bleed in.
			res := testing.Benchmark(c.Bench)
			if n := res.AllocsPerOp(); n != 0 {
				t.Errorf("%s: %d allocs/op (%d B/op), want 0", c.Name, n, res.AllocedBytesPerOp())
			}
		})
	}
}
