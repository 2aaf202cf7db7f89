package core

import (
	"fmt"

	"ubscache/internal/fdip"
)

// ROBEntry is one in-flight instruction.
type ROBEntry struct {
	Done       uint64
	Seq        uint64
	IsLoad     bool
	IsStore    bool
	Mispredict bool
}

// DecodeItem is an instruction between fetch and dispatch.
type DecodeItem struct {
	Item    fdip.Item
	ReadyAt uint64
}

// State is the core's mutable state, the form the core keeps it in and
// the checkpoint stores: the backend and its front-end redirect
// machinery. The ROB is the full raw ring (ROBHead/ROBCount index into
// it). The decode queue's image holds only the live window; the core
// keeps the offset of that window in its backing array outside State.
// The scheduler/LQ/SQ occupancy wheel is not state either: it is a
// function of the ROB and the clock, and RestoreInPlace rebuilds it.
// Clock is the machine's monotonic time base — every completion cycle in
// every layer is an absolute cycle number against it — and is never
// reset; Stats.Cycles counts only the cycles since the last ResetStats.
type State struct {
	ROB      []ROBEntry
	ROBHead  int
	ROBCount int
	Decode   []DecodeItem
	Seq      uint64
	DoneRing [512]uint64 // completion cycles by sequence number
	// Front-end redirect state.
	WaitMispredict bool
	RedirectAt     uint64 // 0 = resolution cycle unknown yet
	FetchBlocked   uint64 // fetch stalls until this cycle
	BlockReason    StallReason
	Clock          uint64
	Stats          Stats
}

// Snapshot copies the core's mutable state into dst; dst shares no
// memory with the core.
func (c *Core) Snapshot(dst *State) {
	rob, decode := dst.ROB, dst.Decode
	*dst = c.st
	dst.ROB = append(rob[:0], c.st.ROB...)
	dst.Decode = append(decode[:0], c.st.Decode[c.decodeHead:]...)
}

// RestoreInPlace fills the core's own State in place through fill, which
// decodes into the value it is handed, for an image captured from a core
// of the same configuration. Every ring index and queue length is
// checked against the core as built; the pre-sized backings are kept
// where the image fits them, so the steady-state capacity invariants
// (Validate) keep holding, and the occupancy wheel is rebuilt from the
// restored ROB. A failed RestoreInPlace leaves the core unusable.
func (c *Core) RestoreInPlace(fill func(any) error) error {
	want := c.st
	if err := fill(&c.st); err != nil {
		return err
	}
	if err := check(&c.st, &want); err != nil {
		return err
	}
	c.resume()
	return nil
}

// State returns the core's live state for checks that read a restored
// machine; the caller must not modify it. Its decode queue is the live
// window only right after a restore.
func (c *Core) State() *State { return &c.st }

// check validates an image against want, the core's state as built.
func check(src, want *State) error {
	switch n := len(want.ROB); {
	case len(src.ROB) != n:
		return fmt.Errorf("core: snapshot ROB has %d slots, core has %d", len(src.ROB), n)
	case src.ROBHead < 0 || src.ROBHead >= n || src.ROBCount < 0 || src.ROBCount > n:
		return fmt.Errorf("core: snapshot ROB head/count %d/%d out of range for %d slots", src.ROBHead, src.ROBCount, n)
	case len(src.Decode) > cap(want.Decode):
		return fmt.Errorf("core: snapshot decode window %d exceeds queue capacity %d", len(src.Decode), cap(want.Decode))
	case int(src.BlockReason) >= len(src.Stats.Stalls):
		return fmt.Errorf("core: snapshot stall reason %d unknown", src.BlockReason)
	}
	return nil
}

// resume derives what a restored state leaves out: the decode window
// starts at its backing's head, and the occupancy wheel holds the live
// ROB entries not yet complete at the clock.
func (c *Core) resume() {
	c.decodeHead = 0
	c.busy = inflight{far: c.busy.far[:0], next: c.st.Clock}
	for i := 0; i < c.st.ROBCount; i++ {
		if e := &c.st.ROB[(c.st.ROBHead+i)%len(c.st.ROB)]; e.Done >= c.st.Clock {
			c.busy.add(e)
		}
	}
}
