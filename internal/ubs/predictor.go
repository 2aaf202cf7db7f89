package ubs

import "math/bits"

// predictor is the useful-byte predictor (§IV-B): a small cache of full
// 64B blocks, each with a bit-vector recording the granules fetched by the
// core during the block's residency. On eviction, the bit-vector tells the
// UBS cache which bytes to keep. It is a view onto the cache's
// PredictorState (set-major entries and the clock) plus the geometry.
type predictor struct {
	*PredictorState
	sets setIndexer
	ways int
	fifo bool
}

func newPredictor(st *PredictorState, sets, ways int, fifo bool) predictor {
	st.Entries = make([]PredEntry, sets*ways)
	return predictor{PredictorState: st, sets: newSetIndexer(sets), ways: ways, fifo: fifo}
}

// set returns the entries of block's set: a window of Entries.
func (p *predictor) set(block uint64) []PredEntry {
	s := p.sets.index(block)
	return p.Entries[s*p.ways : (s+1)*p.ways]
}

// setIndexer maps a block to one of n sets, masking instead of dividing
// when n is a power of two.
type setIndexer struct {
	n, mask uint64
	pow2    bool
}

func newSetIndexer(n int) setIndexer {
	return setIndexer{n: uint64(n), mask: uint64(n - 1), pow2: n&(n-1) == 0}
}

func (s setIndexer) index(block uint64) int {
	if s.pow2 {
		return int((block >> 6) & s.mask)
	}
	return int((block >> 6) % s.n)
}

// lookup finds the entry for block, optionally refreshing recency.
func (p *predictor) lookup(block uint64, touch bool) *PredEntry {
	set := p.set(block)
	for i := range set {
		e := &set[i]
		if e.Valid && e.Tag == block {
			if touch && !p.fifo {
				p.Clock++
				e.Order = p.Clock
			}
			return e
		}
	}
	return nil
}

// insert installs block and returns its entry and the victim it displaced
// (Valid=false if none); a resident block is only refreshed. One pass
// over the set finds the match, the first free entry and the oldest. The
// caller moves the victim's useful bytes into the UBS ways.
func (p *predictor) insert(block uint64, cycle uint64, prefetched bool) (e *PredEntry, victim PredEntry) {
	set := p.set(block)
	free, way, oldest := -1, -1, ^uint64(0)
	for i := range set {
		e := &set[i]
		switch {
		case !e.Valid:
			if free < 0 {
				free = i
			}
		case e.Tag == block:
			if !p.fifo {
				p.Clock++
				e.Order = p.Clock
			}
			return e, PredEntry{}
		case e.Order < oldest:
			way, oldest = i, e.Order
		}
	}
	if free >= 0 {
		way = free
	} else {
		victim = set[way]
	}
	p.Clock++
	set[way] = PredEntry{Valid: true, Prefetched: prefetched, Tag: block,
		Order: p.Clock, Insert: cycle}
	return &set[way], victim
}

// rangeMask builds a granule mask covering [g0, g1] inclusive. Masks are
// 64-bit so both 16-granule (4B) and 64-granule (byte) tracking fit.
func rangeMask(g0, g1 int) uint64 {
	if g0 < 0 || g1 >= 64 || g0 > g1 {
		panic("ubs: bad granule range")
	}
	if g1-g0 == 63 {
		return ^uint64(0)
	}
	return ((1 << (g1 - g0 + 1)) - 1) << g0
}

// popcount counts set bits.
func popcount(m uint64) int { return bits.OnesCount64(m) }

// run is a maximal run of set granule bits.
type run struct{ start, len int }

func (r run) end() int { return r.start + r.len }

// countRuns returns the number of maximal runs in mask without
// materialising them: a run begins at every set bit whose lower neighbour
// is clear.
func countRuns(mask uint64) int {
	return popcount(mask &^ (mask << 1))
}

// extractRunsInto decomposes mask into maximal runs, ascending, appending
// them to dst so hot paths can reuse a scratch buffer and stay
// allocation-free.
func extractRunsInto(dst []run, mask uint64) []run {
	runs := dst
	for g := 0; g < 64; {
		if mask&(1<<g) == 0 {
			g++
			continue
		}
		start := g
		for g < 64 && mask&(1<<g) != 0 {
			g++
		}
		runs = append(runs, run{start: start, len: g - start})
	}
	return runs
}
