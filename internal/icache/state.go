package icache

import (
	"fmt"

	"ubscache/internal/cache"
	"ubscache/internal/mem"
	"ubscache/internal/snap"
)

// Checkpointable is implemented by frontends that can serialize their
// mutable state. The bytes are opaque to callers: each frontend
// snap-encodes its own exported state struct, and only the same
// concrete frontend type (built from the same design config) can decode
// them. sim.Machine stores the bytes in MachineState.Frontend.
type Checkpointable interface {
	SnapshotState() ([]byte, error)
	RestoreState(data []byte) error
}

// EngineState captures the shared fetch-engine substrate every frontend
// embeds: the L1-I MSHR file and the fetch counters.
type EngineState struct {
	MSHR  mem.MSHRState
	Stats Stats
}

// Snapshot copies the engine's mutable state into dst.
func (e *Engine) Snapshot(dst *EngineState) {
	e.eng.File().Snapshot(&dst.MSHR)
	dst.Stats = e.stats
}

// Restore installs a previously captured EngineState.
func (e *Engine) Restore(src *EngineState) error {
	if err := e.eng.File().Restore(&src.MSHR); err != nil {
		return err
	}
	e.stats = src.Stats
	return nil
}

// ACICState is the ACIC admission filter's mutable state (see
// Conventional's acic).
type ACICState struct {
	Table  []uint8
	Bypass []uint64
	Pos    int
}

// ConventionalState captures the conventional frontend: engine, cache
// array, and (when the design enables it) the ACIC admission filter.
type ConventionalState struct {
	Engine EngineState
	Cache  cache.State
	ACIC   *ACICState
}

// Snapshot copies the frontend's mutable state into dst; dst shares no
// memory with the frontend.
func (cv *Conventional) Snapshot(dst *ConventionalState) {
	cv.Engine.Snapshot(&dst.Engine)
	cv.c.Snapshot(&dst.Cache)
	if cv.acic == nil {
		dst.ACIC = nil
		return
	}
	if dst.ACIC == nil {
		dst.ACIC = &ACICState{}
	}
	copyACIC(dst.ACIC, cv.acic)
}

// Restore installs a previously captured ConventionalState.
func (cv *Conventional) Restore(src *ConventionalState) error {
	if (src.ACIC == nil) != (cv.acic == nil) {
		return fmt.Errorf("icache conv: snapshot and design disagree on ACIC presence")
	}
	if a := src.ACIC; a != nil {
		switch {
		case len(a.Table) != len(cv.acic.Table):
			return fmt.Errorf("icache conv: ACIC table has %d counters, want %d", len(a.Table), len(cv.acic.Table))
		case len(a.Bypass) > acicBypassCap:
			return fmt.Errorf("icache conv: ACIC bypass buffer holds %d blocks, capacity is %d", len(a.Bypass), acicBypassCap)
		case a.Pos < 0 || a.Pos >= acicBypassCap:
			return fmt.Errorf("icache conv: ACIC bypass position %d outside [0,%d)", a.Pos, acicBypassCap)
		}
	}
	if err := cv.Engine.Restore(&src.Engine); err != nil {
		return err
	}
	if err := cv.c.Restore(&src.Cache); err != nil {
		return err
	}
	if cv.acic != nil {
		copyACIC(cv.acic, src.ACIC)
	}
	return nil
}

// copyACIC deep-copies src into dst, reusing dst's backing arrays.
func copyACIC(dst, src *ACICState) {
	table, bypass := dst.Table, dst.Bypass
	*dst = *src
	dst.Table = append(table[:0], src.Table...)
	dst.Bypass = append(bypass[:0], src.Bypass...)
}

// SnapshotState implements Checkpointable.
func (cv *Conventional) SnapshotState() ([]byte, error) {
	var st ConventionalState
	cv.Snapshot(&st)
	return snap.Marshal(&st)
}

// RestoreState implements Checkpointable.
func (cv *Conventional) RestoreState(data []byte) error {
	var st ConventionalState
	if err := snap.Unmarshal(data, &st); err != nil {
		return err
	}
	return cv.Restore(&st)
}

// FillBufferState is the small-block fill buffer's mutable state: the
// recently fetched 64B block addresses, FIFO, so chunks other than the
// requested one can migrate into the small-block array on demand, and
// the next position to overwrite once the buffer is full.
type FillBufferState struct {
	Blocks []uint64
	Pos    int
}

// SmallBlockState captures the small-block frontend: engine, cache
// array, and the 64B fill buffer that batches sub-block fills.
type SmallBlockState struct {
	Engine EngineState
	Cache  cache.State
	Buffer FillBufferState
}

// Snapshot copies the frontend's mutable state into dst; dst shares no
// memory with the frontend.
func (sb *SmallBlock) Snapshot(dst *SmallBlockState) {
	sb.Engine.Snapshot(&dst.Engine)
	sb.c.Snapshot(&dst.Cache)
	blocks := dst.Buffer.Blocks
	dst.Buffer = sb.buffer
	dst.Buffer.Blocks = append(blocks[:0], sb.buffer.Blocks...)
}

// Restore installs a previously captured SmallBlockState.
func (sb *SmallBlock) Restore(src *SmallBlockState) error {
	capacity := sb.cfg.BufferCap
	if n := len(src.Buffer.Blocks); n > capacity {
		return fmt.Errorf("icache smallblock: snapshot fill buffer %d exceeds capacity %d", n, capacity)
	}
	if p := src.Buffer.Pos; p < 0 || p >= max(capacity, 1) {
		return fmt.Errorf("icache smallblock: fill buffer position %d outside [0,%d)", p, max(capacity, 1))
	}
	if err := sb.Engine.Restore(&src.Engine); err != nil {
		return err
	}
	if err := sb.c.Restore(&src.Cache); err != nil {
		return err
	}
	blocks := sb.buffer.Blocks
	sb.buffer = src.Buffer
	sb.buffer.Blocks = append(blocks[:0], src.Buffer.Blocks...)
	return nil
}

// SnapshotState implements Checkpointable.
func (sb *SmallBlock) SnapshotState() ([]byte, error) {
	var st SmallBlockState
	sb.Snapshot(&st)
	return snap.Marshal(&st)
}

// RestoreState implements Checkpointable.
func (sb *SmallBlock) RestoreState(data []byte) error {
	var st SmallBlockState
	if err := snap.Unmarshal(data, &st); err != nil {
		return err
	}
	return sb.Restore(&st)
}

// WOCEntry is one 8B word of the word-organised cache, tagged by its
// word-aligned address.
type WOCEntry struct {
	Valid bool
	Addr  uint64
	LRU   uint64
	Used  bool
}

// WOCState is the word-organised half of Line Distillation: Sets x
// WOCWords entries, set-major, and the LRU clock.
type WOCState struct {
	Entries []WOCEntry
	Clock   uint64
}

// DistillState captures the Line Distillation frontend: engine, the
// line-organised cache, and the word-organised cache.
type DistillState struct {
	Engine  EngineState
	LOC     cache.State
	WOC     WOCState
	WOCHits uint64
}

// Snapshot copies the frontend's mutable state into dst; dst shares no
// memory with the frontend.
func (d *Distill) Snapshot(dst *DistillState) {
	d.Engine.Snapshot(&dst.Engine)
	d.loc.Snapshot(&dst.LOC)
	entries := dst.WOC.Entries
	dst.WOC = d.woc
	dst.WOC.Entries = append(entries[:0], d.woc.Entries...)
	dst.WOCHits = d.WOCHits
}

// Restore installs a previously captured DistillState.
func (d *Distill) Restore(src *DistillState) error {
	if len(src.WOC.Entries) != len(d.woc.Entries) {
		return fmt.Errorf("icache distill: snapshot WOC has %d entries, cache holds %d", len(src.WOC.Entries), len(d.woc.Entries))
	}
	if err := d.Engine.Restore(&src.Engine); err != nil {
		return err
	}
	if err := d.loc.Restore(&src.LOC); err != nil {
		return err
	}
	entries := d.woc.Entries
	d.woc = src.WOC
	d.woc.Entries = append(entries[:0], src.WOC.Entries...)
	d.WOCHits = src.WOCHits
	return nil
}

// SnapshotState implements Checkpointable.
func (d *Distill) SnapshotState() ([]byte, error) {
	var st DistillState
	d.Snapshot(&st)
	return snap.Marshal(&st)
}

// RestoreState implements Checkpointable.
func (d *Distill) RestoreState(data []byte) error {
	var st DistillState
	if err := snap.Unmarshal(data, &st); err != nil {
		return err
	}
	return d.Restore(&st)
}
