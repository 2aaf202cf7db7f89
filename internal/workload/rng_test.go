package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestRNGMatchesMathRand pins the owned generator to math/rand's value
// stream: for every seed, an interleaving of Float64, Intn (powers of two
// and not, both Intn branches) and Int63 calls returns exactly what a
// rand.New(rand.NewSource(seed)) generator returns. Each seed runs past
// the register length, so every word of the seeded register is read and
// rewritten at least once.
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, -1, 1, 42, -42, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1,
		2 * (1<<31 - 1), 1 << 40, -(1 << 31), -(1<<31 - 1), math.MaxInt64, math.MinInt64,
		0x5eed_0001, 42 ^ 0x5eed_0001}
	pick := rand.New(rand.NewSource(7))
	for len(seeds) < 1200 {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	// Intn bounds above math.MaxInt do not exist on 32-bit platforms.
	var ns []int
	for _, n := range []int64{1, 2, 3, 7, 12, 24, 64, 100, 4096, 1000003, 1 << 30, 1<<31 - 1,
		1 << 31, 1<<31 + 1, 1 << 40, 3 << 40, math.MaxInt64} {
		if n <= math.MaxInt {
			ns = append(ns, int(n))
		}
	}
	const calls = 1500
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		var got RNG
		got.Seed(seed)
		for i := 0; i < calls; i++ {
			switch op := pick.Intn(3); op {
			case 0:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d call %d: Float64 = %v, math/rand %v", seed, i, g, w)
				}
			case 1:
				n := ns[pick.Intn(len(ns))]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d call %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
				}
			default:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d call %d: Int63 = %d, math/rand %d", seed, i, g, w)
				}
			}
		}
	}
}
