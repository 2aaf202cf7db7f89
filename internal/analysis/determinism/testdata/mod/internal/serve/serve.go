// Package serve mirrors the repository's serving layer: inside the
// determinism scope for the global-RNG and map-order rules, but outside
// the simulation core — the daemon reads the clock routinely (job
// timestamps, latency histograms, retry hints), so the clock rule
// tracks where those values flow instead of flagging every read.
package serve

import (
	"encoding/json"
	"math/rand"
	"os"
	"time"
)

// SubmitStamp records a job's admission time: in the serving layer a
// bare clock read needs no waiver — only a flow into a sink would.
func SubmitStamp() time.Time {
	return time.Now()
}

// JobLatency measures one job's wall-clock service time for the latency
// histogram: likewise clean on sight.
func JobLatency(run func()) float64 {
	t0 := time.Now()
	run()
	return time.Since(t0).Seconds()
}

// PickWorker draws from the global RNG: never legal in scope — a
// scheduler decision must be replayable, and the clock leniency of the
// serving layer does not extend to randomness.
func PickWorker(n int) int {
	return rand.Intn(n) // want `global math/rand source`
}

// DumpJobs writes map entries in iteration order: the serving layer's
// artifacts (job listings, metric exports) must stay byte-deterministic
// too.
func DumpJobs(jobs map[string]int) {
	enc := json.NewEncoder(os.Stdout)
	for id, state := range jobs { // want `range over map writes to an output stream`
		enc.Encode([2]any{id, state})
	}
}
