package ubs

import (
	"fmt"
	"math/bits"

	"ubscache/internal/cache"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
)

// containsGranule reports whether granule g is stored.
func (w *WayEntry) containsGranule(g int) bool {
	return w.Valid && g >= w.Start && g < w.Start+w.Stored
}

// Stats extends the common frontend counters with UBS-specific ones. The
// embedded icache.Stats are accounted by the shared icache.Engine;
// UBSStats merges them into the extended set.
type Stats struct {
	icache.Stats
	PredictorHits   uint64 // demand hits served by the predictor
	WayHits         uint64 // demand hits served by the uneven ways
	Placements      uint64 // sub-blocks moved from predictor to ways
	DiscardedBlocks uint64 // predictor victims with no useful bytes at all
	SalvagedMoves   uint64 // partial-miss invalidations salvaged into bit-vectors
	TrailingFills   uint64 // granules installed speculatively after a run
	AbsorbedRuns    uint64 // runs merged into a preceding sub-block's fill
	// Congruence counts events of the §VI-H policy extensions.
	Congruence CongruenceStats
}

// Cache is the UBS instruction cache frontend. The embedded icache.Engine
// supplies the miss path, the common counters, and the Stats/Latency/
// MSHRInFlight surface; st holds the rest of the cache's state, and its
// Stats only the UBS-specific extensions.
type Cache struct {
	*icache.Engine
	cfg     Config
	granule int   // offset granularity in bytes (4, 2 or 1)
	gshift  uint  // log2(granule): granule indexes shift, not divide
	ng      int   // granules per 64B block (16, 32 or 64)
	wayG    []int // way capacity in granules
	st      Storage
	pred    predictor // view onto st.Pred
	sets    setIndexer

	// Reusable scratch, sized once in New, so the per-access hot path and
	// the property-test harness stay allocation-free in steady state.
	runScratch []run     // moveToWays run decomposition
	invScratch []tagSpan // CheckInvariants per-set span table
}

// tagSpan is one valid sub-block's extent, used by CheckInvariants.
type tagSpan struct {
	tag    uint64
	lo, hi int
}

var _ icache.Frontend = (*Cache)(nil)
var _ icache.MSHROccupant = (*Cache)(nil)

// New builds a UBS cache over hierarchy h.
func New(cfg Config, h *mem.Hierarchy) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Cache{Engine: icache.NewEngine(cfg.MSHRs, cfg.Lat, h), cfg: cfg,
		granule: cfg.granule(), ng: cfg.Granules(), sets: newSetIndexer(cfg.Sets)}
	u.gshift = uint(bits.TrailingZeros(uint(u.granule)))
	u.st.Ways = make([]WayEntry, cfg.Sets*len(cfg.WaySizes))
	u.wayG = make([]int, len(cfg.WaySizes))
	for i, w := range cfg.WaySizes {
		u.wayG[i] = w / u.granule
	}
	u.pred = newPredictor(&u.st.Pred, cfg.PredictorSets, cfg.PredictorWays, cfg.PredictorFIFO)
	u.runScratch = make([]run, 0, u.ng/2+1)
	u.invScratch = make([]tagSpan, 0, len(cfg.WaySizes))
	if cfg.DeadBlockWays {
		u.st.Dead = newDeadState()
	}
	if cfg.AdmissionFilter {
		u.st.Admit = newAdmitState()
	}
	return u, nil
}

// MustNew panics on configuration errors.
func MustNew(cfg Config, h *mem.Hierarchy) *Cache {
	u, err := New(cfg, h)
	if err != nil {
		panic(err)
	}
	return u
}

// Name identifies the design.
func (u *Cache) Name() string { return u.cfg.Name }

// Config returns the configuration.
func (u *Cache) Config() Config { return u.cfg }

// UBSStats returns the full UBS counter set: the engine's common counters
// merged with the UBS-specific extensions.
func (u *Cache) UBSStats() Stats {
	st := u.st.Stats
	st.Stats = u.Engine.Stats()
	return st
}

// ResetStats zeroes the common counters and the UBS extensions
// (icache.Frontend).
func (u *Cache) ResetStats() {
	u.Engine.ResetStats()
	u.st.Stats = Stats{}
}

// ways returns set's uneven ways: a window of the set-major Ways slice.
func (u *Cache) ways(set int) []WayEntry {
	return u.st.Ways[set*len(u.wayG) : (set+1)*len(u.wayG)]
}

// granules converts a fetch range (within one 64B block) to inclusive
// granule coordinates at the cache's offset granularity.
func (u *Cache) granules(addr uint64, size int) (block uint64, g0, g1 int) {
	block = addr &^ (BlockSize - 1)
	g0 = int(addr&(BlockSize-1)) >> u.gshift
	g1 = int((addr+uint64(size)-1)&(BlockSize-1)) >> u.gshift
	if (addr+uint64(size)-1)&^(BlockSize-1) != block {
		panic(fmt.Sprintf("ubs: fetch [%#x,+%d) spans 64B blocks", addr, size))
	}
	return block, g0, g1
}

// classify determines the fetch outcome against the uneven ways (§IV-E):
// the covering way's entry on Hit, otherwise the partial/full miss kind.
func (u *Cache) classify(block uint64, g0, g1 int) (hit *WayEntry, kind icache.Kind) {
	tagMatch := false
	startCovered, endCovered := false, false
	ways := u.ways(u.sets.index(block))
	for w := range ways {
		e := &ways[w]
		if e.Tag != block || !e.Valid {
			continue
		}
		tagMatch = true
		start, end := e.containsGranule(g0), e.containsGranule(g1)
		if start && end {
			return e, icache.Hit
		}
		startCovered = startCovered || start
		endCovered = endCovered || end
	}
	switch {
	case !tagMatch:
		return nil, icache.FullMiss
	case startCovered:
		return nil, icache.Overrun
	case endCovered:
		return nil, icache.Underrun
	default:
		return nil, icache.MissingSubBlock
	}
}

// Fetch implements icache.Frontend. The predictor and the ways are probed
// in parallel; a request can hit in only one of them (§IV-E). Each is
// probed once: a hit updates the entry its probe returned.
func (u *Cache) Fetch(addr uint64, size int, now uint64) icache.Result {
	block, g0, g1 := u.granules(addr, size)

	// A block still in flight is unusable; subsequent fetches merge.
	if r, merged := u.Begin(block, now); merged {
		if e := u.pred.lookup(block, true); e != nil {
			e.Mask |= rangeMask(g0, g1) // bytes will be useful on arrival
		}
		return r
	}

	// Predictor probe. A demand fetch clears the prefetched flag: the
	// entry's bit-vector now reflects observed locality.
	if e := u.pred.lookup(block, true); e != nil {
		e.Mask |= rangeMask(g0, g1)
		e.Prefetched = false
		u.st.Stats.PredictorHits++
		return u.Hit()
	}

	// Way probe.
	e, kind := u.classify(block, g0, g1)
	if kind == icache.Hit {
		e.Accessed |= rangeMask(g0, g1)
		u.st.Clock++
		e.LRU = u.st.Clock
		if !e.Reused {
			e.Reused = true
			if u.st.Dead != nil {
				u.st.Dead.train(e.Sig, false)
				u.st.Stats.Congruence.ReuseTrainings++
			}
			if u.st.Admit != nil {
				u.st.Admit.trainReuse(e.Tag)
			}
		}
		u.st.Stats.WayHits++
		return u.Hit()
	}

	// Miss (full or partial): fetch the whole 64B block from L2 (§IV-F).
	ctx := cache.AccessContext{PC: addr, Cycle: now}
	r := u.Miss(block, kind, now, ctx)
	if r.Issued {
		u.install(block, now, rangeMask(g0, g1), false)
	}
	return r
}

// install places an incoming 64B block into the predictor and returns
// its entry: resident sub-blocks of the same block are invalidated first,
// with their useful bytes salvaged into the new bit-vector (§IV-G), and
// the predictor victim is distilled into the ways.
func (u *Cache) install(block uint64, now uint64, demandMask uint64, prefetch bool) *PredEntry {
	salvaged := u.invalidateSubBlocks(block)
	if salvaged != 0 {
		u.st.Stats.SalvagedMoves++
	}
	e, victim := u.pred.insert(block, now, prefetch)
	e.Mask |= demandMask | salvaged
	if demandMask != 0 || salvaged != 0 {
		e.Prefetched = false
	}
	if victim.Valid {
		keep := victim.Mask
		if victim.Mask == 0 && victim.Prefetched {
			// A prefetched block evicted before its first demand fetch:
			// keep the FDIP-predicted range (the §IV-A start+size request)
			// rather than dropping a timely prefetch, falling back to the
			// whole block when no range was recorded. Kept granules stay
			// unaccessed for the efficiency accounting.
			keep = victim.PrefMask
			if keep == 0 {
				keep = rangeMask(0, u.ng-1)
			}
		}
		u.moveToWays(victim.Tag, keep, victim.Mask, now)
	}
	return e
}

// invalidateSubBlocks removes all resident sub-blocks of block, returning
// the union of their accessed-granule masks.
func (u *Cache) invalidateSubBlocks(block uint64) uint64 {
	set := u.sets.index(block)
	var mask uint64
	ways := u.ways(set)
	for w := range ways {
		e := &ways[w]
		if e.Valid && e.Tag == block {
			mask |= e.Accessed
			*e = WayEntry{}
		}
	}
	return mask
}

// moveToWays distils a predictor victim into the uneven ways: each maximal
// run of accessed granules becomes a sub-block placed in the best-fitting
// way window; leftover way capacity absorbs the following granules
// (§IV-F). Runs swallowed by a preceding fill are merged, preserving the
// non-overlap invariant (§IV-E).
func (u *Cache) moveToWays(block uint64, keep, accessed uint64, now uint64) {
	if keep == 0 {
		u.st.Stats.DiscardedBlocks++
		return
	}
	if u.st.Admit != nil && !u.st.Admit.admit(block) {
		// ACIC-in-congruence: this region's sub-blocks keep dying without
		// reuse; bypass the ways entirely (§VI-H).
		u.st.Stats.Congruence.FilteredRuns += uint64(countRuns(keep))
		return
	}
	runs := extractRunsInto(u.runScratch[:0], keep)
	for i := 0; i < len(runs); {
		r := runs[i]
		stored := u.place(block, r, accessed, now)
		end := r.start + stored
		// Absorb following runs covered by the trailing fill.
		j := i + 1
		for j < len(runs) && runs[j].start < end {
			if runs[j].end() <= end {
				u.st.Stats.AbsorbedRuns++
				j++
				continue
			}
			// Partially covered: the remainder becomes its own run.
			runs[j] = run{start: end, len: runs[j].end() - end}
			break
		}
		i = j
	}
	u.runScratch = runs[:0] // keep any grown backing for reuse
}

// place installs one run as a sub-block and returns the stored granule
// count (≥ r.len when trailing fill applies).
func (u *Cache) place(block uint64, r run, accessedMask uint64, now uint64) int {
	// Smallest way class that fits the run (§IV-F).
	n := 0
	for n < len(u.wayG) && u.wayG[n] < r.len {
		n++
	}
	if n == len(u.wayG) {
		n = len(u.wayG) - 1 // cannot happen: max way holds a full block
	}
	last := n + u.cfg.PlacementWindow - 1
	if last >= len(u.wayG) {
		last = len(u.wayG) - 1
	}
	ways := u.ways(u.sets.index(block))
	// Modified LRU among the candidate window (§IV-F); with DeadBlockWays,
	// predicted-dead sub-blocks are preferred victims.
	way, oldest := -1, ^uint64(0)
	deadWay, deadOldest := -1, ^uint64(0)
	for w := n; w <= last; w++ {
		e := &ways[w]
		if !e.Valid {
			way = w
			break
		}
		if e.LRU < oldest {
			way, oldest = w, e.LRU
		}
		if u.st.Dead != nil && u.st.Dead.predictDead(e.Sig) && e.LRU < deadOldest {
			deadWay, deadOldest = w, e.LRU
		}
	}
	if way >= 0 && ways[way].Valid && deadWay >= 0 {
		way = deadWay
		u.st.Stats.Congruence.DeadVictims++
	}
	e := &ways[way]
	if e.Valid {
		if u.st.Dead != nil {
			u.st.Dead.train(e.Sig, !e.Reused)
			if !e.Reused {
				u.st.Stats.Congruence.DeadTrainings++
			}
		}
		if u.st.Admit != nil && !e.Reused {
			u.st.Admit.trainDead(e.Tag)
		}
	}
	stored := u.wayG[way]
	if r.start+stored > u.ng {
		stored = u.ng - r.start
	}
	if !u.cfg.FillTrailing && stored > r.len {
		stored = r.len
	}
	u.st.Clock++
	accessed := accessedMask & rangeMask(r.start, r.start+stored-1)
	var sig uint32
	if u.st.Dead != nil {
		sig = u.st.Dead.signature(block, r.start)
	}
	*e = WayEntry{
		Valid: true, Tag: block, Start: r.start, Stored: stored,
		Accessed: accessed, LRU: u.st.Clock, Insert: now, Sig: sig,
	}
	u.st.Stats.Placements++
	u.st.Stats.TrailingFills += uint64(stored - popcount(accessed))
	return stored
}

// Prefetch implements icache.Frontend: prefetched blocks enter through the
// predictor like all incoming blocks, and the requested range accumulates
// into the entry's predicted-useful mask.
func (u *Cache) Prefetch(addr uint64, size int, now uint64) {
	block, g0, g1 := u.granules(addr, size)
	e := u.pred.lookup(block, false)
	if e == nil {
		if _, kind := u.classify(block, g0, g1); kind == icache.Hit {
			return
		}
		ctx := cache.AccessContext{PC: addr, Cycle: now, Prefetch: true}
		if !u.Engine.Prefetch(block, now, ctx) {
			return
		}
		e = u.install(block, now, 0, true)
	}
	e.PrefMask |= rangeMask(g0, g1)
}

// Efficiency returns the storage-efficiency metric over both the uneven
// ways and the predictor: the fraction of stored granules accessed at
// least once during the block's current residency. Granules carried over
// from the predictor keep their accessed status (they were fetched during
// this residency); trailing-fill granules start cold.
func (u *Cache) Efficiency() (float64, bool) {
	var used, total int
	for i := range u.st.Ways {
		if e := &u.st.Ways[i]; e.Valid {
			used += popcount(e.Accessed)
			total += e.Stored
		}
	}
	for i := range u.st.Pred.Entries {
		if e := &u.st.Pred.Entries[i]; e.Valid {
			used += popcount(e.Mask)
			total += u.ng
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(used) / float64(total), true
}

// ResidentBlocks returns (waySubBlocks, predictorBlocks) — the paper's
// "more than 2x the blocks of a conventional cache" claim is checked
// against these.
func (u *Cache) ResidentBlocks() (ways, pred int) {
	for i := range u.st.Ways {
		if u.st.Ways[i].Valid {
			ways++
		}
	}
	for i := range u.st.Pred.Entries {
		if u.st.Pred.Entries[i].Valid {
			pred++
		}
	}
	return ways, pred
}

// CheckInvariants validates the §IV-E structural invariants: sub-blocks of
// the same 64B block never overlap, stored extents stay within the block
// and within way capacity, and every sub-block lives in its home set. It
// returns the first violation found. Tests and the property harness call
// this after every operation batch, so it works off preallocated scratch
// (a set holds at most len(WaySizes) sub-blocks — a linear span table
// beats a map and allocates nothing across calls).
func (u *Cache) CheckInvariants() error {
	for s := 0; s < u.cfg.Sets; s++ {
		spans := u.invScratch[:0]
		ways := u.ways(s)
		for w := range ways {
			e := &ways[w]
			if !e.Valid {
				continue
			}
			if u.sets.index(e.Tag) != s {
				return fmt.Errorf("ubs: block %#x in wrong set %d", e.Tag, s)
			}
			if e.Stored < 1 || e.Stored > u.wayG[w] {
				return fmt.Errorf("ubs: way %d stores %d granules, capacity %d",
					w, e.Stored, u.wayG[w])
			}
			if e.Start < 0 || e.Start+e.Stored > u.ng {
				return fmt.Errorf("ubs: sub-block [%d,+%d) exceeds block", e.Start, e.Stored)
			}
			if e.Accessed&^rangeMask(e.Start, e.Start+e.Stored-1) != 0 {
				return fmt.Errorf("ubs: accessed bits outside stored range")
			}
			for _, sp := range spans {
				if sp.tag == e.Tag && e.Start < sp.hi && sp.lo < e.Start+e.Stored {
					return fmt.Errorf("ubs: overlapping sub-blocks of %#x", e.Tag)
				}
			}
			spans = append(spans, tagSpan{tag: e.Tag, lo: e.Start, hi: e.Start + e.Stored})
		}
		// A block must not be resident in both predictor and ways.
		for i := range spans {
			dup := false
			for j := 0; j < i; j++ {
				if spans[j].tag == spans[i].tag {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if u.pred.lookup(spans[i].tag, false) != nil {
				return fmt.Errorf("ubs: block %#x in both predictor and ways", spans[i].tag)
			}
		}
		u.invScratch = spans[:0]
	}
	return nil
}
