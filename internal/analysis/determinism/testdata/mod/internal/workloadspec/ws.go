// Package workloadspec mirrors the repository's workload-resolution
// layer: inside the determinism scope (path suffix internal/workloadspec)
// because the multi-client mix interleaver's arrival draws are part of
// the result identity — same spec + seed must replay the same client
// schedule bit-for-bit.
package workloadspec

import (
	"encoding/json"
	"math/rand"
	"os"
	"time"
)

// Interleave is the legal shape: every stochastic draw (client pick,
// arrival quantum) comes from an explicitly seeded generator carried in
// the mix state.
func Interleave(seed int64, weights []float64) int {
	rng := rand.New(rand.NewSource(seed))
	x := rng.Float64()
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// PickClient draws the next client from the global source: the schedule
// would differ run to run, so the spec no longer identifies the result.
func PickClient(n int) int {
	return rand.Intn(n) // want `global math/rand source`
}

// SeedFromClock derives a mix seed from the host clock: the canonical
// spec must carry the seed explicitly instead.
func SeedFromClock() int64 {
	return time.Now().UnixNano() // want `time\.Now in the simulation core`
}

// DumpClients writes resolved clients in map order: the canonical spec
// bytes feed content-hash keys, so their order must be pinned.
func DumpClients(clients map[string]int) {
	enc := json.NewEncoder(os.Stdout)
	for id, w := range clients { // want `range over map writes to an output stream`
		enc.Encode([2]any{id, w})
	}
}
