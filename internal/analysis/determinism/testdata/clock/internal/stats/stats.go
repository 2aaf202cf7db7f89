// Package stats reproduces the internal/stats role: its struct fields
// are published counters, a deterministic sink for the clock rule.
package stats

// Stats mirrors the simulator's counter block.
type Stats struct {
	Fetches uint64
	Seconds float64
}
