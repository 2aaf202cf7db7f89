package icache

import (
	"testing"

	"ubscache/internal/cache"
	"ubscache/internal/testutil"
)

// engineFetches returns one op of the shared frontend fetch engine — the
// miss path every L1-I design composes — driven through its demand
// protocol at steady state: Begin on every access, Hit on the ~3/4 the
// modelled array would serve, Miss (MSHR check, hierarchy walk, insert)
// on the rest. TestEngineFetchAllocFree gates the stream
// BenchmarkEngineFetch times.
func engineFetches() func() {
	e := NewEngine(8, 4, hier())
	ctx := cache.AccessContext{}
	now := uint64(0)
	i := 0
	return func() {
		now += 3
		block := uint64(i%512) * 64
		miss := i%4 == 0
		i++
		if _, merged := e.Begin(block, now); merged {
			return
		}
		if !miss {
			e.Hit()
			return
		}
		e.Miss(block, FullMiss, now, ctx)
	}
}

// TestEngineFetchAllocFree pins the demand protocol to 0 allocs/op.
// AllocsPerRun rounds down per run, so a run is 100 ops: a Miss that
// allocated would read nonzero though only one op in four reaches it.
func TestEngineFetchAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	op := engineFetches()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			op()
		}
	})
	if allocs != 0 {
		t.Errorf("Engine demand fetch allocates %.0f objects per 100 ops, want 0", allocs)
	}
}

func BenchmarkEngineFetch(b *testing.B) {
	op := engineFetches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
