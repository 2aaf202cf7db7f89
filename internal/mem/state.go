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

// Snapshot copies the MSHR file's state into dst; dst shares no memory
// with the file.
func (m *MSHR) Snapshot(dst *MSHRState) {
	entries := dst.Entries
	*dst = m.MSHRState
	dst.Entries = append(entries[:0], m.Entries...)
}

// Restore installs a State captured from a file of the same capacity.
// The entries must fit the capacity and keep the heap order that expiry
// relies on.
func (m *MSHR) Restore(src *MSHRState) error {
	if len(src.Entries) > m.cap {
		return fmt.Errorf("mshr: snapshot has %d entries, file capacity is %d", len(src.Entries), m.cap)
	}
	for i := 1; i < len(src.Entries); i++ {
		if src.Entries[(i-1)/2].Done > src.Entries[i].Done {
			return fmt.Errorf("mshr: snapshot entry %d breaks the completion-time heap order", i)
		}
	}
	entries := m.Entries
	m.MSHRState = *src
	m.Entries = append(entries[:0], src.Entries...)
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
func (d *DRAM) Snapshot(dst *DRAMState) { copyDRAM(dst, &d.DRAMState) }

// Restore installs a State captured from a model with the same bank
// count.
func (d *DRAM) Restore(src *DRAMState) error {
	if len(src.Rows) != len(d.Rows) || len(src.Busy) != len(d.Busy) {
		return fmt.Errorf("dram: snapshot has %d/%d banks, model has %d", len(src.Rows), len(src.Busy), len(d.Rows))
	}
	copyDRAM(&d.DRAMState, src)
	return nil
}

// copyDRAM deep-copies src into dst, reusing dst's backing arrays.
func copyDRAM(dst, src *DRAMState) {
	rows, busy := dst.Rows, dst.Busy
	*dst = *src
	dst.Rows = append(rows[:0], src.Rows...)
	dst.Busy = append(busy[:0], src.Busy...)
}

// LevelState is one shared cache level: its array plus its MSHR file.
type LevelState struct {
	Cache cache.State
	MSHR  MSHRState
}

// Snapshot copies the level's mutable state into dst.
func (l *Level) Snapshot(dst *LevelState) {
	l.Cache.Snapshot(&dst.Cache)
	l.MSHR.Snapshot(&dst.MSHR)
}

// Restore installs a previously captured LevelState.
func (l *Level) Restore(src *LevelState) error {
	if err := l.Cache.Restore(&src.Cache); err != nil {
		return err
	}
	return l.MSHR.Restore(&src.MSHR)
}

// HierarchyState captures the shared L2 → L3 → DRAM path.
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

// Restore installs a previously captured HierarchyState.
func (h *Hierarchy) Restore(src *HierarchyState) error {
	if err := h.L2.Restore(&src.L2); err != nil {
		return err
	}
	if err := h.L3.Restore(&src.L3); err != nil {
		return err
	}
	return h.DRAM.Restore(&src.DRAM)
}

// DataCacheState captures the L1-D array and its MSHR file (which the
// data cache shares with its fetch engine, so one copy covers both).
type DataCacheState struct {
	Cache cache.State
	MSHR  MSHRState
}

// Snapshot copies the data cache's mutable state into dst.
func (d *DataCache) Snapshot(dst *DataCacheState) {
	d.C.Snapshot(&dst.Cache)
	d.MSHR.Snapshot(&dst.MSHR)
}

// Restore installs a previously captured DataCacheState.
func (d *DataCache) Restore(src *DataCacheState) error {
	if err := d.C.Restore(&src.Cache); err != nil {
		return err
	}
	return d.MSHR.Restore(&src.MSHR)
}
