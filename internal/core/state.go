package core

import (
	"fmt"

	"ubscache/internal/fdip"
)

// ROBEntry is the exported image of one reorder buffer slot.
type ROBEntry struct {
	Done       uint64
	Seq        uint64
	IsLoad     bool
	IsStore    bool
	Mispredict bool
}

// DecodeItem is the exported image of one instruction between fetch and
// dispatch.
type DecodeItem struct {
	Item    fdip.Item
	ReadyAt uint64
}

// State is the checkpointable image of the core backend and its
// front-end redirect machinery. The ROB is captured as the full raw
// ring (head/count index into it). The scheduler/LQ/SQ occupancy wheel
// is not captured: it is a function of the ROB and the clock, and
// Restore rebuilds it. The clock is the machine's monotonic time base —
// every completion cycle in every layer is an absolute cycle number
// against it — so it is part of the state, not of the stats.
//
//ubs:state
type State struct {
	ROB      []ROBEntry
	ROBHead  int
	ROBCount int
	Decode   []DecodeItem
	Seq      uint64
	DoneRing [512]uint64
	// Front-end redirect state.
	WaitMispredict bool
	RedirectAt     uint64
	FetchBlocked   uint64
	BlockReason    StallReason
	Clock          uint64
	Stats          Stats
}

// Snapshot copies the core's mutable state into dst, reusing dst's
// backing storage where it is already the right size.
func (c *Core) Snapshot(dst *State) {
	if cap(dst.ROB) < len(c.rob) {
		dst.ROB = make([]ROBEntry, len(c.rob))
	}
	dst.ROB = dst.ROB[:len(c.rob)]
	for i, e := range c.rob {
		dst.ROB[i] = ROBEntry{Done: e.done, Seq: e.seq, IsLoad: e.isLoad, IsStore: e.isStore, Mispredict: e.mispredict}
	}
	dst.ROBHead = c.robHead
	dst.ROBCount = c.robCount
	live := c.decode[c.decodeHead:]
	if cap(dst.Decode) < len(live) {
		dst.Decode = make([]DecodeItem, len(live))
	}
	dst.Decode = dst.Decode[:len(live)]
	for i, d := range live {
		dst.Decode[i] = DecodeItem{Item: d.item, ReadyAt: d.readyAt}
	}
	dst.Seq = c.seq
	dst.DoneRing = c.doneRing
	dst.WaitMispredict = c.waitMispredict
	dst.RedirectAt = c.redirectAt
	dst.FetchBlocked = c.fetchBlocked
	dst.BlockReason = c.blockReason
	dst.Clock = c.clock
	dst.Stats = c.stats
}

// Restore installs a previously captured State into a core of the same
// configuration, copying into the pre-sized backings so the steady-state
// capacity invariants (Validate) keep holding afterwards, and rebuilds
// the occupancy wheel from the restored ROB.
func (c *Core) Restore(src *State) error {
	if len(src.ROB) != len(c.rob) {
		return fmt.Errorf("core: snapshot ROB has %d slots, core has %d", len(src.ROB), len(c.rob))
	}
	if len(src.Decode) > cap(c.decode) {
		return fmt.Errorf("core: snapshot decode window %d exceeds queue capacity %d", len(src.Decode), cap(c.decode))
	}
	if src.ROBHead < 0 || src.ROBHead >= len(c.rob) || src.ROBCount < 0 || src.ROBCount > len(c.rob) {
		return fmt.Errorf("core: snapshot ROB head/count %d/%d out of range for %d slots", src.ROBHead, src.ROBCount, len(c.rob))
	}
	for i, e := range src.ROB {
		c.rob[i] = robEntry{done: e.Done, seq: e.Seq, isLoad: e.IsLoad, isStore: e.IsStore, mispredict: e.Mispredict}
	}
	c.robHead = src.ROBHead
	c.robCount = src.ROBCount
	c.decode = c.decode[:0]
	for _, d := range src.Decode {
		c.decode = append(c.decode, decodeItem{item: d.Item, readyAt: d.ReadyAt})
	}
	c.decodeHead = 0
	c.seq = src.Seq
	c.doneRing = src.DoneRing
	c.waitMispredict = src.WaitMispredict
	c.redirectAt = src.RedirectAt
	c.fetchBlocked = src.FetchBlocked
	c.blockReason = src.BlockReason
	c.clock = src.Clock
	c.stats = src.Stats
	// Rebuild the occupancy wheel: the instructions in flight are the
	// live ROB entries not yet complete at the clock.
	c.busy = inflight{far: c.busy.far[:0], next: c.clock}
	for i := 0; i < c.robCount; i++ {
		if e := &c.rob[(c.robHead+i)%len(c.rob)]; e.done >= c.clock {
			c.busy.add(*e)
		}
	}
	return nil
}
