package ubs

import (
	"math/rand"
	"runtime"
	"testing"

	"ubscache/internal/testutil"
)

// fetchStreams are the steady-state Fetch streams: 8-byte fetches every
// 16 bytes, cycling over a code footprint. The 64KB sweep overflows the
// cache, so every fetch misses or merges into an in-flight miss, and
// blocks keep moving from the predictor to the ways (run extraction);
// the 8KB one stays resident and every fetch hits.
var fetchStreams = []struct {
	name  string
	lines int
}{
	{"footprint64KB", 4096},
	{"footprint8KB", 512},
}

// fetchOp warms a default cache on a stream of lines 16-byte lines and
// returns one op of it. TestFetchSteadyStateAllocFree gates the streams
// BenchmarkFetch times.
func fetchOp(tb testing.TB, lines int) func() {
	u := newDefault(tb)
	for i := 0; i < 8192; i++ {
		u.Fetch(0x10000+uint64(i%lines)*16, 8, uint64(i*4))
	}
	now := uint64(8192 * 4)
	i := 0
	return func() {
		now += 2
		u.Fetch(0x10000+uint64(i%lines)*16, 8, now)
		i++
	}
}

// TestFetchSteadyStateAllocFree covers the frontend fast path end to end
// (predictor, ways, moveToWays run extraction) on a warm footprint.
// AllocsPerRun rounds down per run, so a run is 100 fetches: a path
// that allocates on one fetch in a few still reads nonzero.
func TestFetchSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	for _, s := range fetchStreams {
		t.Run(s.name, func(t *testing.T) {
			op := fetchOp(t, s.lines)
			runtime.GC() // a GC ending inside the window counts the runtime's own allocations
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 100; i++ {
					op()
				}
			})
			if allocs != 0 {
				t.Errorf("Fetch steady state allocates %.0f objects per 100 fetches, want 0", allocs)
			}
		})
	}
}

func BenchmarkFetch(b *testing.B) {
	for _, s := range fetchStreams {
		b.Run(s.name, func(b *testing.B) {
			op := fetchOp(b, s.lines)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// prefetchStream is an FDIP-shaped prefetch stream: fetch regions of 1 to
// 12 sequential 4B instructions, each starting at a random instruction of
// a 16KB footprint, one Prefetch per instruction as fdip.FTQ issues them.
// Runs of spans share a block, and the footprint fits the cache, so a
// warm cache serves most spans from the predictor or the ways.
func prefetchStream() []uint64 {
	rng := rand.New(rand.NewSource(1))
	var pcs []uint64
	for len(pcs) < 1<<14 {
		pc := 0x10000 + uint64(rng.Intn(4096))*4
		for n := 1 + rng.Intn(12); n > 0; n-- {
			pcs = append(pcs, pc)
			pc += 4
		}
	}
	return pcs
}

// prefetchOp warms a default cache on prefetchStream and returns one op
// of it: one 4B Prefetch. TestPrefetchSteadyStateAllocFree gates the op
// BenchmarkPrefetch times.
func prefetchOp(tb testing.TB) func() {
	u := newDefault(tb)
	pcs := prefetchStream()
	now := uint64(0)
	for i := 0; i < 4*len(pcs); i++ {
		now += 2
		u.Prefetch(pcs[i%len(pcs)], 4, now)
	}
	i := 0
	return func() {
		now += 2
		u.Prefetch(pcs[i%len(pcs)], 4, now)
		i++
	}
}

// TestPrefetchSteadyStateAllocFree covers the prefetch path end to end
// (predictor and way probes, installs, victim distillation) on a warm
// footprint, 100 prefetches per run.
func TestPrefetchSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	op := prefetchOp(t)
	runtime.GC() // a GC ending inside the window counts the runtime's own allocations
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			op()
		}
	})
	if allocs != 0 {
		t.Errorf("Prefetch steady state allocates %.0f objects per 100 prefetches, want 0", allocs)
	}
}

func BenchmarkPrefetch(b *testing.B) {
	op := prefetchOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
