package mem

import "ubscache/internal/cache"

// MissStatus classifies the outcome of a FetchEngine.Issue attempt.
type MissStatus uint8

const (
	// MissIssued: a new miss was allocated and is now in flight.
	MissIssued MissStatus = iota
	// MissStallFull: this engine's own MSHR file is full; the caller must
	// retry the access on a later cycle.
	MissStallFull
	// MissStallDownstream: an MSHR file deeper in the hierarchy is full;
	// the caller must retry the access on a later cycle.
	MissStallDownstream
)

// Stalled reports whether the status denotes MSHR backpressure (own file
// or downstream) forcing a retry.
func (s MissStatus) Stalled() bool { return s != MissIssued }

// FetchEngine is the canonical L1 miss path: an MSHR file and a hit
// latency in front of the shared L2/L3/DRAM hierarchy. Every private L1 —
// the instruction-cache frontends (through icache.Engine) and the L1-D —
// composes one engine instead of hand-rolling the
// Lookup/Full/RecordFullStall/FetchBlock/Insert sequence, so timing fixes
// to the miss path land in exactly one place. The misspath analyzer
// (internal/analysis/misspath, run by vet) pins that this package stays
// the only non-test call site of that sequence.
type FetchEngine struct {
	mshr *MSHR
	h    *Hierarchy
	lat  uint64
}

// NewFetchEngine builds an engine with an MSHR file of mshrs entries and
// the given hit latency over hierarchy h.
func NewFetchEngine(mshrs int, lat uint64, h *Hierarchy) *FetchEngine {
	return &FetchEngine{mshr: NewMSHR(mshrs), h: h, lat: lat}
}

// Latency returns the hit latency in cycles.
func (e *FetchEngine) Latency() uint64 { return e.lat }

// InFlight returns the number of outstanding misses at cycle now.
func (e *FetchEngine) InFlight(now uint64) int { return e.mshr.InFlight(now) }

// File exposes the MSHR file (observability gauges, tests).
func (e *FetchEngine) File() *MSHR { return e.mshr }

// Pending reports an outstanding miss for block at cycle now, merging the
// request into it (the caller's access completes when the miss does).
func (e *FetchEngine) Pending(block, now uint64) (done uint64, pending bool) {
	return e.mshr.Lookup(block, now)
}

// Issue runs the miss path for block at cycle now: an MSHR entry is
// allocated and the block fetched from the hierarchy, completing at the
// returned cycle. A full MSHR file aborts with MissStallFull — recording
// the retry against the file only for demand misses, so FullStall keeps
// counting caller-observed retries rather than dropped prefetches — and
// downstream backpressure aborts with MissStallDownstream (the level that
// forced the abort has already recorded its own stall). The caller must
// have resolved merges via Pending first.
func (e *FetchEngine) Issue(block, now uint64, ctx cache.AccessContext, demand bool) (done uint64, st MissStatus) {
	if e.mshr.Full(now) {
		if demand {
			e.mshr.RecordFullStall()
		}
		return 0, MissStallFull
	}
	done, ok := e.h.FetchBlock(block, now+e.lat, ctx)
	if !ok {
		return 0, MissStallDownstream
	}
	e.mshr.Insert(block, done)
	return done, MissIssued
}
