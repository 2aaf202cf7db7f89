package ubs

// Congruence extensions (§VI-H): the paper observes that UBS is orthogonal
// to replacement and insertion policies — "UBS can work in congruence with
// ACIC and GHRP since insertion policy, replacement policy, and block size
// are complementary aspects of a cache design". This file provides the two
// combinations as optional Config features:
//
//   - DeadBlockWays: a GHRP-style dead-sub-block predictor biases the
//     modified-LRU victim choice within the placement window towards
//     sub-blocks whose last-touch signature historically led to death
//     without reuse.
//   - AdmissionFilter: an ACIC-style region admission table gates the
//     predictor→way movement: runs from code regions whose sub-blocks
//     keep dying unreused are discarded instead of placed.
//
// Both learn purely from UBS events and add no interaction with the
// baseline mechanisms, mirroring how the original policies would be
// attached to a conventional cache.

const (
	deadTables     = 3
	deadTableBits  = 11
	deadCounterMax = 3
	deadThresh     = 2

	admitTableBits = 11
	admitMax       = 3
	admitThresh    = 2  // counters >= admitThresh admit
	admitRegion    = 11 // log2 bytes of an admission region (2KB)
)

// DeadState is the GHRP-style dead-sub-block predictor for
// DeadBlockWays: deadTables counter tables (flat, table-major) and the
// signature history.
type DeadState struct {
	Tables  []uint8
	History uint32
}

func newDeadState() *DeadState {
	return &DeadState{Tables: make([]uint8, deadTables<<deadTableBits)}
}

func (d *DeadState) signature(block uint64, start int) uint32 {
	h := (block >> 6) ^ uint64(start)<<17 ^ uint64(d.History)<<29
	h ^= h >> 15
	h *= 0x9e3779b1
	h ^= h >> 13
	return uint32(h)
}

// index returns sig's counter in table t, as an index into the flat
// Tables.
func (d *DeadState) index(t int, sig uint32) int {
	h := uint64(sig) * (0xc2b2ae35 + 2*uint64(t)*0x85ebca6b)
	h ^= h >> 13
	return t<<deadTableBits | int(h)&(1<<deadTableBits-1)
}

func (d *DeadState) predictDead(sig uint32) bool {
	votes := 0
	for t := 0; t < deadTables; t++ {
		if d.Tables[d.index(t, sig)] >= deadThresh {
			votes++
		}
	}
	return votes*2 > deadTables
}

func (d *DeadState) train(sig uint32, dead bool) {
	for t := 0; t < deadTables; t++ {
		i := d.index(t, sig)
		if dead {
			if d.Tables[i] < deadCounterMax {
				d.Tables[i]++
			}
		} else if d.Tables[i] > 0 {
			d.Tables[i]--
		}
	}
	d.History = d.History<<3 ^ sig&0x7
}

// AdmitState is the ACIC-style region admission table for
// AdmissionFilter.
type AdmitState struct {
	Table []uint8
}

func newAdmitState() *AdmitState {
	a := &AdmitState{Table: make([]uint8, 1<<admitTableBits)}
	for i := range a.Table {
		a.Table[i] = admitThresh // start admitting
	}
	return a
}

func (a *AdmitState) index(block uint64) int {
	h := (block >> admitRegion) * 0x9e3779b97f4a7c15
	h ^= h >> 31
	return int(h) & (1<<admitTableBits - 1)
}

func (a *AdmitState) admit(block uint64) bool {
	return a.Table[a.index(block)] >= admitThresh
}

// trainReuse rewards a region whose placed sub-block proved reuse.
func (a *AdmitState) trainReuse(block uint64) {
	if i := a.index(block); a.Table[i] < admitMax {
		a.Table[i]++
	}
}

// trainDead penalises a region whose placed sub-block died unreused.
func (a *AdmitState) trainDead(block uint64) {
	if i := a.index(block); a.Table[i] > 0 {
		a.Table[i]--
	}
}

// CongruenceStats counts extension events.
type CongruenceStats struct {
	DeadVictims    uint64 // victims chosen because predicted dead
	FilteredRuns   uint64 // runs not placed due to the admission filter
	ReuseTrainings uint64
	DeadTrainings  uint64
}
