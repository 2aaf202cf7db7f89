package ubs

import (
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
