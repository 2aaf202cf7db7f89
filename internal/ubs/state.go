package ubs

import (
	"fmt"

	"ubscache/internal/icache"
	"ubscache/internal/snap"
)

// WayEntry is one uneven way of one set: a tagged sub-block of a
// 64B-aligned block, described by its start offset (in granules) with its
// size implied by the way (§IV-C).
type WayEntry struct {
	Valid  bool
	Tag    uint64 // 64B block address
	Start  int    // first stored granule within the block
	Stored int    // granules actually stored (≤ way capacity; clipped at block end)
	// Accessed marks stored granules that have been fetched; bits are
	// positioned absolutely within the 64B block for simplicity.
	Accessed uint64
	LRU      uint64
	Insert   uint64
	// Reused and Sig feed the §VI-H congruence extensions.
	Reused bool
	Sig    uint32
}

// PredEntry is one useful-byte predictor entry.
type PredEntry struct {
	Valid bool
	// Prefetched marks entries filled by FDIP that have not yet seen a
	// demand fetch; their locality is unknown rather than observed-cold.
	Prefetched bool
	Tag        uint64 // 64B block address
	Mask       uint64 // accessed granules
	// PrefMask marks granules predicted useful by FDIP fetch ranges (§IV-A
	// start+size requests). They guide distillation when the block is
	// evicted before its first demand fetch, but do not count as accessed.
	PrefMask uint64
	Order    uint64 // LRU or FIFO timestamp
	Insert   uint64 // fill cycle
}

// PredictorState is the useful-byte predictor's state: PredictorSets x
// PredictorWays entries, set-major, and the recency clock.
type PredictorState struct {
	Entries []PredEntry
	Clock   uint64
}

// Storage is the UBS cache's own mutable state, the form the cache keeps
// it in: the uneven-block directory (Sets x len(WaySizes) ways,
// set-major), its LRU clock, the UBS-specific counters, the useful-byte
// predictor, and — when the congruence extensions are enabled — the
// dead-block predictor and admission filter (nil otherwise).
type Storage struct {
	Ways  []WayEntry
	Clock uint64
	Stats Stats
	Pred  PredictorState
	Dead  *DeadState
	Admit *AdmitState
}

// State is the checkpointable image of the UBS cache: the shared fetch
// engine's state followed by the cache's own Storage.
type State struct {
	Engine icache.EngineState
	Storage
}

// Snapshot copies the cache's mutable state into dst; dst shares no
// memory with the cache.
func (u *Cache) Snapshot(dst *State) {
	u.Engine.Snapshot(&dst.Engine)
	copyStorage(&dst.Storage, &u.st)
}

// Restore installs a State captured from a cache of the same
// configuration, after checking every length and every granule extent
// and mask against it.
func (u *Cache) Restore(src *State) error {
	if err := u.check(&src.Storage); err != nil {
		return fmt.Errorf("ubs: snapshot %w", err)
	}
	if err := u.Engine.Restore(&src.Engine); err != nil {
		return err
	}
	copyStorage(&u.st, &src.Storage)
	return nil
}

// check validates an image's Storage against this cache.
func (u *Cache) check(st *Storage) error {
	if len(st.Ways) != len(u.st.Ways) {
		return fmt.Errorf("has %d ways, cache holds %d", len(st.Ways), len(u.st.Ways))
	}
	block := rangeMask(0, u.ng-1)
	for i := range st.Ways {
		e := &st.Ways[i]
		if !e.Valid {
			continue
		}
		if w := i % len(u.wayG); e.Stored < 1 || e.Stored > u.wayG[w] || e.Start < 0 || e.Start > u.ng-e.Stored ||
			e.Accessed&^rangeMask(e.Start, e.Start+e.Stored-1) != 0 {
			return fmt.Errorf("way %d holds granules [%d,+%d) accessed %#x, outside way capacity %d of %d", i, e.Start, e.Stored, e.Accessed, u.wayG[w], u.ng)
		}
	}
	if len(st.Pred.Entries) != len(u.st.Pred.Entries) {
		return fmt.Errorf("predictor has %d entries, cache holds %d", len(st.Pred.Entries), len(u.st.Pred.Entries))
	}
	for i := range st.Pred.Entries {
		if e := &st.Pred.Entries[i]; (e.Mask|e.PrefMask)&^block != 0 {
			return fmt.Errorf("predictor entry %d masks %#x/%#x exceed %d granules", i, e.Mask, e.PrefMask, u.ng)
		}
	}
	if (st.Dead == nil) != (u.st.Dead == nil) || (st.Admit == nil) != (u.st.Admit == nil) {
		return fmt.Errorf("and design disagree on congruence extensions")
	}
	if st.Dead != nil && len(st.Dead.Tables) != len(u.st.Dead.Tables) {
		return fmt.Errorf("dead predictor has %d counters, want %d", len(st.Dead.Tables), len(u.st.Dead.Tables))
	}
	if st.Admit != nil && len(st.Admit.Table) != len(u.st.Admit.Table) {
		return fmt.Errorf("admit table has %d counters, want %d", len(st.Admit.Table), len(u.st.Admit.Table))
	}
	return nil
}

// copyStorage deep-copies src into dst, reusing dst's backing arrays.
// The dead predictor's tables always have their configured length: a
// live cache's by construction, an image's once check has passed.
func copyStorage(dst, src *Storage) {
	ways, entries, dead, admit := dst.Ways, dst.Pred.Entries, dst.Dead, dst.Admit
	*dst = *src
	dst.Ways = append(ways[:0], src.Ways...)
	dst.Pred.Entries = append(entries[:0], src.Pred.Entries...)
	dst.Dead, dst.Admit = nil, nil
	if src.Dead != nil {
		if dead == nil {
			dead = newDeadState()
		}
		tables := dead.Tables
		*dead = *src.Dead
		dead.Tables = tables
		copy(tables, src.Dead.Tables)
		dst.Dead = dead
	}
	if src.Admit != nil {
		if admit == nil {
			admit = &AdmitState{}
		}
		admit.Table = append(admit.Table[:0], src.Admit.Table...)
		dst.Admit = admit
	}
}

// SnapshotState implements icache.Checkpointable.
func (u *Cache) SnapshotState() ([]byte, error) {
	var st State
	u.Snapshot(&st)
	return snap.Marshal(&st)
}

// RestoreState implements icache.Checkpointable.
func (u *Cache) RestoreState(data []byte) error {
	var st State
	if err := snap.Unmarshal(data, &st); err != nil {
		return err
	}
	return u.Restore(&st)
}
