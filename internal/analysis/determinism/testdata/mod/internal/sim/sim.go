// Package sim sits in the simulation core (path suffix internal/sim):
// wall-clock reads, the global RNG, and map-ordered output are
// violations here.
package sim

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"time"
)

// Stamp leaks the host clock into a result-producing package.
func Stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now in the simulation core`
}

// Elapsed measures host time; time.Since is banned in the core too.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since in the simulation core`
}

// Paced tries the orchestration layers' sink waiver: in the core the
// clock is banned outright, so no waiver applies.
func Paced() time.Time {
	//ubs:wallclock pacing metadata only
	return time.Now() // want `time\.Now in the simulation core`
}

// Roll draws from the global math/rand source.
func Roll() int {
	return rand.Intn(6) // want `global math/rand source`
}

// SeededRoll replays bit-for-bit: explicit source, explicit seed.
func SeededRoll(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// DumpUnsorted writes one JSON line per map entry in iteration order:
// the artifact bytes change run to run.
func DumpUnsorted(m map[string]int) {
	enc := json.NewEncoder(os.Stdout)
	for k, v := range m { // want `range over map writes to an output stream`
		enc.Encode([2]any{k, v})
	}
}

// DumpSorted collects, sorts, then writes: deterministic.
func DumpSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc := json.NewEncoder(os.Stdout)
	for _, k := range keys {
		enc.Encode([2]any{k, m[k]})
	}
}

// DumpAudited is order-insensitive (single aggregate after the loop) and
// carries the audit waiver.
func DumpAudited(m map[string]int) {
	sum := 0
	//ubs:deterministic commutative aggregation, single write after audit
	for _, v := range m {
		sum += v
		os.Stdout.WriteString("") // emit call inside the loop, waived above
	}
}
