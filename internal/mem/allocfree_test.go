package mem

import (
	"fmt"
	"testing"

	"ubscache/internal/cache"
	"ubscache/internal/testutil"
)

// The steady-state ops below are shared by each 0-allocs test and the
// benchmark of the same path, so the stream a benchmark times is the
// stream its test gates. All are deterministic: fixed address streams,
// fixed clock advance, no RNG.

// mshrCapacities are the MSHR file sizes the model builds: L1-I (every
// frontend's fetch engine), L1-D, L2 and L3.
var mshrCapacities = []int{8, 16, 32, 64}

// mshrChurn returns one op of an MSHR file of the given capacity at
// steady state: the clock advances a few cycles per op while each
// in-flight miss lives ~100 cycles, so ~33 misses want to be in flight.
// The 8- and 16-entry files stay full and refuse most inserts, the
// 32-entry one hovers at capacity with continuous expiry, and the
// 64-entry one never fills: between them, lookups, expiry, capacity
// checks and refused and accepted inserts — the per-access sequence the
// frontends issue.
func mshrChurn(capacity int) func() {
	m := NewMSHR(capacity)
	now := uint64(0)
	i := 0
	return func() {
		now += 3
		block := uint64(i%64) * 64
		i++
		if _, merged := m.Lookup(block, now); merged {
			return
		}
		if !m.Full(now) {
			m.Insert(block, now+100)
		}
	}
}

// fetchBlockWalk returns one op of the shared L2/L3/DRAM walk over a
// working set exactly the size of the L2: L2 hits, L3 hits, MSHR merges,
// DRAM misses and aborted (retry) requests. Demand walks come from the
// frontends' misses; prefetch walks, from their FDIP prefetches, fill
// blocks marked prefetched.
func fetchBlockWalk(prefetch bool) func() {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	ctx := cache.AccessContext{Prefetch: prefetch}
	now := uint64(0)
	i := 0
	return func() {
		now += 2
		h.FetchBlock(uint64(i%8192)*64, now, ctx)
		i++
	}
}

// fetchBlockKinds names the two walks fetchBlockWalk builds.
var fetchBlockKinds = []struct {
	name     string
	prefetch bool
}{
	{"demand", false},
	{"prefetch", true},
}

// dataCacheLoads returns one op of the L1-D front of the hierarchy on a
// stream that overflows the 48KB array, mixing L1 hits with misses that
// walk the backing levels.
func dataCacheLoads(tb testing.TB) func() {
	d, err := NewDataCache(DefaultDataCacheConfig(), MustNewHierarchy(DefaultHierarchyConfig()))
	if err != nil {
		tb.Fatal(err)
	}
	ctx := cache.AccessContext{}
	now := uint64(0)
	i := 0
	return func() {
		now += 2
		d.Load(uint64(i%2048)*64, now, ctx)
		i++
	}
}

// requireAllocFree fails t unless 10,000 calls of op perform no heap
// allocation. testing.AllocsPerRun rounds the count per run down, so
// each run is a batch of 100 calls: an op that allocates on one call in
// a few (a miss, say) still reads nonzero.
func requireAllocFree(t *testing.T, name string, op func()) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			op()
		}
	})
	if allocs != 0 {
		t.Errorf("%s allocates %.0f objects per 100 ops, want 0", name, allocs)
	}
}

// benchOp times op, reporting its allocations.
func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestMSHRSteadyStateAllocFree pins the lookup / capacity-check / insert
// cycle on a hot MSHR of each size the model builds: it never
// heap-allocates once the file's backing array exists.
func TestMSHRSteadyStateAllocFree(t *testing.T) {
	for _, c := range mshrCapacities {
		t.Run(fmt.Sprintf("mshrs%d", c), func(t *testing.T) {
			requireAllocFree(t, "MSHR steady state", mshrChurn(c))
		})
	}
}

// TestFetchBlockAllocFree pins the same property for the full L2/L3/DRAM
// walk, demand and prefetch.
func TestFetchBlockAllocFree(t *testing.T) {
	for _, k := range fetchBlockKinds {
		t.Run(k.name, func(t *testing.T) {
			requireAllocFree(t, "FetchBlock", fetchBlockWalk(k.prefetch))
		})
	}
}

// TestDataCacheLoadAllocFree pins it for L1-D loads, hits and misses.
func TestDataCacheLoadAllocFree(t *testing.T) {
	requireAllocFree(t, "DataCache.Load", dataCacheLoads(t))
}

func BenchmarkMSHR(b *testing.B) {
	for _, c := range mshrCapacities {
		b.Run(fmt.Sprintf("mshrs%d", c), func(b *testing.B) { benchOp(b, mshrChurn(c)) })
	}
}

func BenchmarkFetchBlock(b *testing.B) {
	for _, k := range fetchBlockKinds {
		b.Run(k.name, func(b *testing.B) { benchOp(b, fetchBlockWalk(k.prefetch)) })
	}
}

func BenchmarkDataCacheLoad(b *testing.B) { benchOp(b, dataCacheLoads(b)) }
