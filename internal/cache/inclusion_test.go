package cache

import (
	"math/rand"
	"testing"
)

// TestLRUStackInclusion checks LRU's stack property at a fixed set count:
// a w-way set always holds a subset of the (w+1)-way set's blocks, so on
// any prefix of any address stream the cache with one more way takes no
// more demand misses. The caches run the demand-only Access/Fill loop of
// the Figure 1 pass, for w = 1..16 in lockstep, over seeded random and
// looping instruction-address streams at 64 sets.
func TestLRUStackInclusion(t *testing.T) {
	const sets, maxWays, n = 64, 16, 20_000
	streams := map[string]func(rng *rand.Rand, i int) uint64{
		// Uniform over 32 blocks per set: more than any cache holds.
		"random": func(rng *rand.Rand, _ int) uint64 {
			return uint64(rng.Intn(sets*32))*64 + uint64(rng.Intn(16))*4
		},
		// A hot region of 6 blocks per set hit 80% of the time.
		"hot-cold": func(rng *rand.Rand, _ int) uint64 {
			if rng.Intn(5) > 0 {
				return uint64(rng.Intn(sets*6))*64 + uint64(rng.Intn(16))*4
			}
			return uint64(sets*6+rng.Intn(sets*40))*64 + uint64(rng.Intn(16))*4
		},
		// Uniform over a per-set footprint that changes every 500
		// accesses, from 2 to 19 blocks.
		"random-phases": func(rng *rand.Rand, i int) uint64 {
			blocks := 2 + (i/500*7)%18
			return uint64(rng.Intn(sets*blocks))*64 + uint64(rng.Intn(16))*4
		},
		// Belady's FIFO-anomaly reference string, each round in the next
		// set: a policy without the stack property misses more with 4
		// ways than with 3 on it.
		"belady": func(_ *rand.Rand, i int) uint64 {
			ref := [12]uint64{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}
			set := uint64(i/len(ref)) % sets
			return (ref[i%len(ref)]*sets + set) * 64
		},
		// Straight-line loops over 7 and 12 blocks per set, 4B steps.
		"loop-7":  func(_ *rand.Rand, i int) uint64 { return uint64(i*4) % (sets * 7 * 64) },
		"loop-12": func(_ *rand.Rand, i int) uint64 { return uint64(i*4) % (sets * 12 * 64) },
		// A loop whose body steps from 4 to 12 blocks per set every 4000
		// accesses, with a seeded random jump one access in 50.
		"loop-drift": func(rng *rand.Rand, i int) uint64 {
			body := 64 * 64 * (4 + (i/4000)%9)
			if rng.Intn(50) == 0 {
				return uint64(rng.Intn(sets*20)) * 64
			}
			return uint64(i*4) % uint64(body)
		},
	}
	for name, next := range streams {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			caches := make([]*Cache, maxWays+1)
			misses := make([]uint64, maxWays+1)
			for w := 1; w <= maxWays; w++ {
				caches[w] = MustNew(Config{Name: "lru", Sets: sets, Ways: w, BlockSize: 64})
			}
			for i := 0; i < n; i++ {
				addr := next(rng, i)
				ctx := AccessContext{PC: addr, Cycle: uint64(i)}
				for w := 1; w <= maxWays; w++ {
					c := caches[w]
					if !accessByAddr(c, addr, 4, ctx) {
						c.Fill(addr, ctx)
						c.MarkAccessed(addr, 4)
						misses[w]++
					}
				}
				for w := 1; w < maxWays; w++ {
					if misses[w+1] > misses[w] {
						t.Fatalf("%s seed %d: after %d accesses %d ways missed %d times, %d ways %d",
							name, seed, i+1, w+1, misses[w+1], w, misses[w])
					}
				}
			}
			// The property must not hold vacuously.
			if misses[1] == misses[maxWays] {
				t.Errorf("%s seed %d: %d misses at every way count", name, seed, misses[1])
			}
		}
	}
}
