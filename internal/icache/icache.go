// Package icache defines the instruction-cache frontend interface the core
// fetch engine drives, and implements the paper's baseline designs:
//
//   - Conventional: a fixed-64B-block L1-I (the 32KB/64KB baselines and the
//     Figure 11 size sweep), with pluggable replacement (LRU, GHRP) and
//     optional ACIC admission control (Figure 13).
//   - SmallBlock: 16B/32B-block L1-I fed through a 64B prefetch buffer
//     (Figure 12).
//   - Distill: Line Distillation adapted to the instruction cache
//     (Figure 13).
//
// The UBS cache itself lives in package ubs and satisfies the same Frontend
// interface.
package icache

// Kind classifies the outcome of a fetch probe, following the paper's
// taxonomy (§IV-E, Figures 5 and 6). Conventional caches only produce Hit
// and FullMiss; the partial-miss kinds are UBS-specific.
type Kind uint8

const (
	// Hit: every requested byte is resident.
	Hit Kind = iota
	// FullMiss: no byte of the 64B-aligned block is resident.
	FullMiss
	// MissingSubBlock: a tag matches but none of the requested bytes are
	// resident.
	MissingSubBlock
	// Overrun: the first requested bytes are resident but the last are not.
	Overrun
	// Underrun: the last requested bytes are resident but the first are not.
	Underrun
)

var kindNames = [...]string{"hit", "full-miss", "missing-sub-block", "overrun", "underrun"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// IsPartial reports whether k is one of the partial-miss kinds.
func (k Kind) IsPartial() bool {
	return k == MissingSubBlock || k == Overrun || k == Underrun
}

// Result reports the outcome of a demand fetch.
type Result struct {
	Kind Kind
	// Complete is the cycle at which the missing bytes arrive (valid when
	// Kind != Hit and Issued).
	Complete uint64
	// Issued is false when the miss could not be issued (MSHR full); the
	// fetch engine must retry next cycle.
	Issued bool
}

// Stats are common to all frontends.
type Stats struct {
	Fetches uint64
	Hits    uint64
	Misses  uint64 // all demand misses, partial or full
	ByKind  [5]uint64
	// MSHRStalls counts fetch retries forced by a full MSHR.
	MSHRStalls uint64
	// Prefetches issued to the hierarchy; PrefetchDrops were abandoned due
	// to MSHR pressure.
	Prefetches    uint64
	PrefetchDrops uint64
}

// MPKI returns demand misses per kilo-instruction.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(s.Misses) / float64(instructions)
}

// PartialMissFraction returns the fraction of all misses that are partial.
func (s Stats) PartialMissFraction() float64 {
	p := s.ByKind[MissingSubBlock] + s.ByKind[Overrun] + s.ByKind[Underrun]
	if s.Misses == 0 {
		return 0
	}
	return float64(p) / float64(s.Misses)
}

// Frontend is the instruction-supply interface the fetch engine drives.
// Fetch ranges never span a 64B-aligned block (the fetch engine splits at
// block boundaries, as real fetch units do).
type Frontend interface {
	Name() string
	// Fetch performs a demand fetch of [addr, addr+size) at cycle now.
	Fetch(addr uint64, size int, now uint64) Result
	// Prefetch hints that [addr, addr+size) will be fetched soon. It never
	// stalls; prefetches may be dropped under MSHR pressure.
	Prefetch(addr uint64, size int, now uint64)
	// Efficiency returns the current storage efficiency (fraction of
	// resident bytes that have been accessed), ok=false when empty.
	Efficiency() (float64, bool)
	// Stats returns the counters accumulated since construction or the
	// last ResetStats.
	Stats() Stats
	// ResetStats zeroes every counter, the design's own extensions
	// included; sim.Machine calls it when warmup ends.
	ResetStats()
	// Latency returns the hit latency in cycles.
	Latency() uint64
	// MSHRLastDone returns the latest completion cycle in the L1-I MSHR
	// file, 0 when it is empty; sim.Machine.RestoreEncoded checks it against
	// the clock.
	MSHRLastDone() uint64
}

// MSHROccupant is an optional Frontend extension reporting the live L1-I
// MSHR fill level at a given cycle. All bundled frontends implement it;
// the observability layer uses it for heartbeat MSHR-occupancy gauges.
type MSHROccupant interface {
	MSHRInFlight(now uint64) int
}
