// Package bench is a non-test harness that drives the guarded entry
// points directly. Only _test.go files may do that outside internal/mem,
// so every guarded call here is reported.
package bench

import "misspath.example/internal/mem"

// Churn walks the hierarchy and fills the MSHR by hand.
func Churn(h *mem.Hierarchy, m *mem.MSHR, n uint64) {
	for i := uint64(0); i < n; i++ {
		if done, ok := h.FetchBlock(i*64, i); ok && !m.Full(i) { // want `outside the miss path`
			m.Insert(i*64, done) // want `outside the miss path`
		}
	}
}

// Issue drives the fetch engine without going through icache.Engine.
func Issue(e *mem.FetchEngine, n uint64) {
	for i := uint64(0); i < n; i++ {
		e.Issue(i*64, i) // want `outside the miss path`
	}
}
