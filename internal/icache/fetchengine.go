package icache

import (
	"ubscache/internal/cache"
	"ubscache/internal/mem"
)

// Engine is the shared L1-I miss path: a mem.FetchEngine plus the common
// frontend accounting (Stats). Every bundled frontend — Conventional,
// SmallBlock, Distill, and ubs.Cache — embeds one Engine instead of
// carrying its own MSHR, hierarchy handle, latency, and counter code, so
// the Frontend methods Stats, ResetStats, Latency, and the MSHROccupant
// extension are implemented exactly once, and a timing or accounting fix
// to the miss path lands in one place for every design.
//
// A demand fetch is the three-step protocol
//
//	if r, merged := e.Begin(block, now); merged { return r }   // merge into an in-flight miss
//	if resident { return e.Hit() }                              // frontend-specific probe
//	r := e.Miss(block, kind, now, ctx)                          // issue (or stall on MSHR pressure)
//	if r.Issued { /* frontend-specific install */ }
//
// and a prefetch is a single Prefetch call; the frontend installs the
// block only when it reports true.
type Engine struct {
	eng   *mem.FetchEngine
	stats Stats
}

// NewEngine builds an engine with an MSHR file of mshrs entries and the
// given hit latency over hierarchy h.
func NewEngine(mshrs int, lat uint64, h *mem.Hierarchy) *Engine {
	return &Engine{eng: mem.NewFetchEngine(mshrs, lat, h)}
}

// Latency returns the hit latency in cycles (Frontend).
func (e *Engine) Latency() uint64 { return e.eng.Latency() }

// Stats returns the accumulated counters (Frontend).
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the counters (Frontend).
func (e *Engine) ResetStats() { e.stats = Stats{} }

// MSHRInFlight reports the live MSHR occupancy at cycle now (MSHROccupant).
func (e *Engine) MSHRInFlight(now uint64) int { return e.eng.InFlight(now) }

// Begin opens a demand fetch for the 64B block at cycle now: the fetch is
// counted, and if the block is already in flight the request merges into
// the outstanding miss — merged=true with the completed Result the
// frontend must return (after applying any frontend-specific byte
// accounting for the arriving block).
//
//ubs:hotpath
func (e *Engine) Begin(block, now uint64) (r Result, merged bool) {
	e.stats.Fetches++
	if done, pending := e.eng.Pending(block, now); pending {
		e.stats.Misses++
		e.stats.ByKind[FullMiss]++
		return Result{Kind: FullMiss, Complete: done, Issued: true}, true
	}
	return Result{}, false
}

// Hit records a demand hit and returns its Result.
//
//ubs:hotpath
func (e *Engine) Hit() Result {
	e.stats.Hits++
	e.stats.ByKind[Hit]++
	return Result{Kind: Hit}
}

// Miss runs the demand miss path for block with the given classified kind.
// MSHR backpressure (own file or downstream) yields Issued=false with an
// MSHRStall recorded — the fetch unit retries next cycle; otherwise the
// miss is counted under kind and the Result carries the completion cycle.
// The frontend installs the block only when Issued.
//
//ubs:hotpath
func (e *Engine) Miss(block uint64, kind Kind, now uint64, ctx cache.AccessContext) Result {
	done, st := e.eng.Issue(block, now, ctx, true)
	if st.Stalled() {
		e.stats.MSHRStalls++
		return Result{Kind: kind, Issued: false}
	}
	e.stats.Misses++
	e.stats.ByKind[kind]++
	return Result{Kind: kind, Complete: done, Issued: true}
}

// Prefetch runs the prefetch miss path for block: a block already in
// flight is left alone (the prefetch is redundant), MSHR backpressure
// drops the prefetch, and otherwise the fetch is issued and counted. The
// frontend installs the block only on true.
//
//ubs:hotpath
func (e *Engine) Prefetch(block, now uint64, ctx cache.AccessContext) bool {
	if _, pending := e.eng.Pending(block, now); pending {
		return false
	}
	if _, st := e.eng.Issue(block, now, ctx, false); st.Stalled() {
		e.stats.PrefetchDrops++
		return false
	}
	e.stats.Prefetches++
	return true
}

// Pending reports an outstanding miss for block at cycle now, merging the
// request into it. Frontends with pre-probe early-outs (e.g. SmallBlock's
// fill buffer) use it to keep their probe order.
//
//ubs:hotpath
func (e *Engine) Pending(block, now uint64) (done uint64, pending bool) {
	return e.eng.Pending(block, now)
}

// Peek is Pending without the merge accounting.
//
//ubs:hotpath
func (e *Engine) Peek(block, now uint64) (done uint64, pending bool) {
	return e.eng.Peek(block, now)
}
