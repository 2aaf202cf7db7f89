package icache

import (
	"fmt"

	"ubscache/internal/cache"
	"ubscache/internal/mem"
	"ubscache/internal/snap"
)

// Checkpointable is implemented by frontends that can serialize their
// mutable state. The bytes are opaque to callers: each frontend encodes
// its live state in the snap layout of its exported state struct, and
// only the same concrete frontend type (built from the same design
// config) decodes them, straight into its own tables, and then checks
// them. A RestoreState that fails leaves the frontend unusable: build a
// fresh one to run or restore again. sim.Machine stores the bytes in
// MachineState.Frontend.
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

// AppendState appends the snap encoding of the engine's live state, an
// EngineState, to buf.
func (e *Engine) AppendState(buf []byte) ([]byte, error) {
	buf, err := snap.Append(buf, &e.eng.File().MSHRState)
	if err != nil {
		return buf, err
	}
	return snap.Append(buf, &e.stats)
}

// RestoreInPlace fills the engine's state in place through fill, which
// decodes into the value it is handed, in EngineState's field order, and
// checks the MSHR file it filled.
func (e *Engine) RestoreInPlace(fill func(any) error) error {
	if err := e.eng.File().RestoreInPlace(fill); err != nil {
		return err
	}
	return fill(&e.stats)
}

// snapshotState encodes a frontend built on engine e and cache array c:
// e's EngineState, c's cache.State, then the encoding of each of rest,
// back to back, as the frontend's state struct lays them out.
func snapshotState(e *Engine, c *cache.Cache, rest ...any) ([]byte, error) {
	buf, err := e.AppendState(nil)
	if err == nil {
		buf, err = c.AppendState(buf)
	}
	for _, v := range rest {
		if err == nil {
			buf, err = snap.Append(buf, v)
		}
	}
	return buf, err
}

// restoreState decodes an image snapshotState encoded: the engine's and
// the cache array's parts in place, then the rest through rest, which
// decodes and checks the frontend's own fields; every byte must be
// consumed.
func restoreState(data []byte, e *Engine, c *cache.Cache, rest func(*snap.Decoder) error) error {
	d := snap.NewDecoder(data)
	if err := e.RestoreInPlace(d.Decode); err != nil {
		return err
	}
	if err := c.RestoreInPlace(d.Decode); err != nil {
		return err
	}
	if err := rest(d); err != nil {
		return err
	}
	return d.Done()
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

// SnapshotState implements Checkpointable: it encodes the frontend's live
// state as a ConventionalState.
func (cv *Conventional) SnapshotState() ([]byte, error) {
	return snapshotState(cv.Engine, cv.c, &cv.acic)
}

// RestoreState implements Checkpointable: it decodes a ConventionalState
// image in place and checks the ACIC part against the design.
func (cv *Conventional) RestoreState(data []byte) error {
	return restoreState(data, cv.Engine, cv.c, func(d *snap.Decoder) error {
		present, err := d.Present()
		switch {
		case err != nil:
			return err
		case present != (cv.acic != nil):
			return fmt.Errorf("icache conv: snapshot and design disagree on ACIC presence")
		case !present:
			return nil
		}
		a := cv.acic
		if err := d.Decode(a); err != nil {
			return err
		}
		switch {
		case len(a.Table) != 1<<acicTableBits:
			return fmt.Errorf("icache conv: ACIC table has %d counters, want %d", len(a.Table), 1<<acicTableBits)
		case len(a.Bypass) > acicBypassCap:
			return fmt.Errorf("icache conv: ACIC bypass buffer holds %d blocks, capacity is %d", len(a.Bypass), acicBypassCap)
		case a.Pos < 0 || a.Pos >= acicBypassCap:
			return fmt.Errorf("icache conv: ACIC bypass position %d outside [0,%d)", a.Pos, acicBypassCap)
		}
		return nil
	})
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

// SnapshotState implements Checkpointable: it encodes the frontend's live
// state as a SmallBlockState.
func (sb *SmallBlock) SnapshotState() ([]byte, error) {
	return snapshotState(sb.Engine, sb.c, &sb.buffer)
}

// RestoreState implements Checkpointable: it decodes a SmallBlockState
// image in place and checks the fill buffer against its capacity.
func (sb *SmallBlock) RestoreState(data []byte) error {
	return restoreState(data, sb.Engine, sb.c, func(d *snap.Decoder) error {
		if err := d.Decode(&sb.buffer); err != nil {
			return err
		}
		capacity := sb.cfg.BufferCap
		if n := len(sb.buffer.Blocks); n > capacity {
			return fmt.Errorf("icache smallblock: snapshot fill buffer %d exceeds capacity %d", n, capacity)
		}
		if p := sb.buffer.Pos; p < 0 || p >= max(capacity, 1) {
			return fmt.Errorf("icache smallblock: fill buffer position %d outside [0,%d)", p, max(capacity, 1))
		}
		return nil
	})
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

// SnapshotState implements Checkpointable: it encodes the frontend's live
// state as a DistillState.
func (d *Distill) SnapshotState() ([]byte, error) {
	return snapshotState(d.Engine, d.loc, &d.woc, &d.WOCHits)
}

// RestoreState implements Checkpointable: it decodes a DistillState image
// in place and checks the WOC's size against the design.
func (d *Distill) RestoreState(data []byte) error {
	return restoreState(data, d.Engine, d.loc, func(dec *snap.Decoder) error {
		if err := dec.Decode(&d.woc); err != nil {
			return err
		}
		if n, want := len(d.woc.Entries), d.cfg.Sets*d.cfg.WOCWords; n != want {
			return fmt.Errorf("icache distill: snapshot WOC has %d entries, cache holds %d", n, want)
		}
		return dec.Decode(&d.WOCHits)
	})
}
