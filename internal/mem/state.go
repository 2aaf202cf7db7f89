package mem

import (
	"fmt"

	"ubscache/internal/cache"
)

// MSHREntry is one outstanding miss.
type MSHREntry struct {
	Done  uint64 // completion cycle
	Block uint64 // block address
}

// MSHRState is an MSHR file's mutable state: the live entries, a binary
// min-heap on Done whose backing array is allocated once at capacity,
// plus the counters. FullStall counts aborted demand allocations — one
// per caller-observed retry (see RecordFullStall); Full itself is a pure
// query and counts nothing. Capacity is configuration, not state.
type MSHRState struct {
	Entries   []MSHREntry
	Merges    uint64
	Allocs    uint64
	FullStall uint64
}

// LastDone returns the latest completion cycle among the entries, 0 when
// there are none.
func (s *MSHRState) LastDone() uint64 {
	var last uint64
	for i := range s.Entries {
		last = max(last, s.Entries[i].Done)
	}
	return last
}

// Snapshot copies the MSHR file's state into dst; dst shares no memory
// with the file.
func (m *MSHR) Snapshot(dst *MSHRState) {
	entries := dst.Entries
	*dst = m.MSHRState
	dst.Entries = append(entries[:0], m.Entries...)
}

// RestoreInPlace fills the file's state in place through fill (see
// cache.Cache.RestoreInPlace) and then checks it against the file's
// capacity: the entries must fit it and keep the heap order that expiry
// relies on.
func (m *MSHR) RestoreInPlace(fill func(any) error) error {
	if err := fill(&m.MSHRState); err != nil {
		return err
	}
	return m.check(&m.MSHRState)
}

// check validates an image against this file's capacity.
func (m *MSHR) check(src *MSHRState) error {
	if len(src.Entries) > m.cap {
		return fmt.Errorf("mshr: snapshot has %d entries, file capacity is %d", len(src.Entries), m.cap)
	}
	for i := 1; i < len(src.Entries); i++ {
		if src.Entries[(i-1)/2].Done > src.Entries[i].Done {
			return fmt.Errorf("mshr: snapshot entry %d breaks the completion-time heap order", i)
		}
	}
	return nil
}

// DRAMState is the DRAM model's mutable state: the open row per bank
// (+1; 0 = closed), the cycle each bank becomes free, and the counters.
type DRAMState struct {
	Rows      []uint64
	Busy      []uint64
	Accesses  uint64
	RowHits   uint64
	RowMisses uint64
}

// Snapshot copies the DRAM model's state into dst; dst shares no memory
// with the model.
func (d *DRAM) Snapshot(dst *DRAMState) {
	rows, busy := dst.Rows, dst.Busy
	*dst = d.DRAMState
	dst.Rows = append(rows[:0], d.Rows...)
	dst.Busy = append(busy[:0], d.Busy...)
}

// RestoreInPlace fills the model's state in place through fill (see
// cache.Cache.RestoreInPlace) and then checks its bank count against
// the model's.
func (d *DRAM) RestoreInPlace(fill func(any) error) error {
	if err := fill(&d.DRAMState); err != nil {
		return err
	}
	return d.check(&d.DRAMState)
}

// check validates an image against this model's bank count.
func (d *DRAM) check(src *DRAMState) error {
	if len(src.Rows) != d.cfg.Banks || len(src.Busy) != d.cfg.Banks {
		return fmt.Errorf("dram: snapshot has %d/%d banks, model has %d", len(src.Rows), len(src.Busy), d.cfg.Banks)
	}
	return nil
}

// LevelState is one shared cache level: its array plus its MSHR file.
// Level.RestoreInPlace decodes the fields in this order
// (sim.TestRestoreEncodedWireOrder pins the two together).
type LevelState struct {
	Cache cache.State
	MSHR  MSHRState
}

// Snapshot copies the level's mutable state into dst.
func (l *Level) Snapshot(dst *LevelState) {
	l.Cache.Snapshot(&dst.Cache)
	l.MSHR.Snapshot(&dst.MSHR)
}

// RestoreInPlace fills the level's state in place, part by part (see
// cache.Cache.RestoreInPlace).
func (l *Level) RestoreInPlace(fill func(any) error) error {
	return restoreParts(fill, l.Cache.RestoreInPlace, l.MSHR.RestoreInPlace)
}

// HierarchyState captures the shared L2 → L3 → DRAM path.
// Hierarchy.RestoreInPlace decodes the fields in this order
// (sim.TestRestoreEncodedWireOrder pins the two together).
type HierarchyState struct {
	L2   LevelState
	L3   LevelState
	DRAM DRAMState
}

// Snapshot copies the hierarchy's mutable state into dst.
func (h *Hierarchy) Snapshot(dst *HierarchyState) {
	h.L2.Snapshot(&dst.L2)
	h.L3.Snapshot(&dst.L3)
	h.DRAM.Snapshot(&dst.DRAM)
}

// RestoreInPlace fills the hierarchy's state in place, level by level
// (see cache.Cache.RestoreInPlace).
func (h *Hierarchy) RestoreInPlace(fill func(any) error) error {
	return restoreParts(fill, h.L2.RestoreInPlace, h.L3.RestoreInPlace, h.DRAM.RestoreInPlace)
}

// DataCacheState captures the L1-D array and its MSHR file (which the
// data cache shares with its fetch engine, so one copy covers both).
// DataCache.RestoreInPlace decodes the fields in this order
// (sim.TestRestoreEncodedWireOrder pins the two together).
type DataCacheState struct {
	Cache cache.State
	MSHR  MSHRState
}

// Snapshot copies the data cache's mutable state into dst.
func (d *DataCache) Snapshot(dst *DataCacheState) {
	d.C.Snapshot(&dst.Cache)
	d.MSHR.Snapshot(&dst.MSHR)
}

// RestoreInPlace fills the data cache's state in place, part by part
// (see cache.Cache.RestoreInPlace).
func (d *DataCache) RestoreInPlace(fill func(any) error) error {
	return restoreParts(fill, d.C.RestoreInPlace, d.MSHR.RestoreInPlace)
}

// restoreParts runs each part's RestoreInPlace in wire order, stopping
// at the first error.
func restoreParts(fill func(any) error, parts ...func(func(any) error) error) error {
	for _, restore := range parts {
		if err := restore(fill); err != nil {
			return err
		}
	}
	return nil
}
