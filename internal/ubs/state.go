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

// SnapshotState implements icache.Checkpointable: it encodes the cache's
// live state as a State.
func (u *Cache) SnapshotState() ([]byte, error) {
	buf, err := u.Engine.AppendState(nil)
	if err != nil {
		return nil, err
	}
	return snap.Append(buf, &u.st)
}

// RestoreState implements icache.Checkpointable: it decodes a State image
// straight into the cache and then checks every length against the
// configuration and every granule extent and mask against the geometry.
// A failed RestoreState leaves the cache unusable.
func (u *Cache) RestoreState(data []byte) error {
	d := snap.NewDecoder(data)
	if err := u.Engine.RestoreInPlace(d.Decode); err != nil {
		return err
	}
	if err := d.Decode(&u.st); err != nil {
		return err
	}
	if err := d.Done(); err != nil {
		return err
	}
	if err := u.check(); err != nil {
		return fmt.Errorf("ubs: snapshot %w", err)
	}
	return nil
}

// check validates the Storage a restore decoded. The lengths it expects
// come from the configuration, not from the tables, which the decode has
// already resized to the image's.
func (u *Cache) check() error {
	st := &u.st
	if n, want := len(st.Ways), u.cfg.Sets*len(u.wayG); n != want {
		return fmt.Errorf("has %d ways, cache holds %d", n, want)
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
	if n, want := len(st.Pred.Entries), u.cfg.PredictorSets*u.cfg.PredictorWays; n != want {
		return fmt.Errorf("predictor has %d entries, cache holds %d", n, want)
	}
	for i := range st.Pred.Entries {
		if e := &st.Pred.Entries[i]; (e.Mask|e.PrefMask)&^block != 0 {
			return fmt.Errorf("predictor entry %d masks %#x/%#x exceed %d granules", i, e.Mask, e.PrefMask, u.ng)
		}
	}
	switch {
	case (st.Dead != nil) != u.cfg.DeadBlockWays || (st.Admit != nil) != u.cfg.AdmissionFilter:
		return fmt.Errorf("and design disagree on congruence extensions")
	case st.Dead != nil && len(st.Dead.Tables) != deadTables<<deadTableBits:
		return fmt.Errorf("dead predictor has %d counters, want %d", len(st.Dead.Tables), deadTables<<deadTableBits)
	case st.Admit != nil && len(st.Admit.Table) != 1<<admitTableBits:
		return fmt.Errorf("admit table has %d counters, want %d", len(st.Admit.Table), 1<<admitTableBits)
	}
	return nil
}
