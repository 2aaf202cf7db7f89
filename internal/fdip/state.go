package fdip

import "fmt"

// State is the checkpointable image of the FTQ: the live queue window,
// the absolute walk counters, and the walker flags. EnqueuedTot counts
// exactly the successful src.Next() calls. It is the trace replay
// cursor for sources restored by replay, which a restored machine
// fast-forwards by that many instructions to land on the same next
// instruction, and the check on a restored walker image's emitted count.
//
//ubs:state
type State struct {
	Queue       []Item
	Regions     int
	ConsumedTot uint64
	EnqueuedTot uint64
	PrefCursor  uint64
	Blocked     bool
	SourceDone  bool
	Stats       Stats
}

// Snapshot copies the FTQ's mutable state into dst. Only the live
// window (head..tail) is captured; Restore rebuilds it at offset zero.
func (f *FTQ) Snapshot(dst *State) {
	dst.Queue = append(dst.Queue[:0], f.queue[f.head:]...)
	dst.Regions = f.regions
	dst.ConsumedTot = f.consumedTot
	dst.EnqueuedTot = f.enqueuedTot
	dst.PrefCursor = f.prefCursor
	dst.Blocked = f.blocked
	dst.SourceDone = f.sourceDone
	dst.Stats = f.stats
}

// Restore installs a previously captured State into an FTQ of the same
// configuration. The caller is responsible for positioning the trace
// source at instruction EnqueuedTot (see sim.Machine.Restore).
func (f *FTQ) Restore(src *State) error {
	if len(src.Queue) > cap(f.queue) {
		return fmt.Errorf("ftq: snapshot holds %d items, queue capacity is %d", len(src.Queue), cap(f.queue))
	}
	f.queue = append(f.queue[:0], src.Queue...)
	f.head = 0
	f.regions = src.Regions
	f.consumedTot = src.ConsumedTot
	f.enqueuedTot = src.EnqueuedTot
	f.prefCursor = src.PrefCursor
	f.blocked = src.Blocked
	f.sourceDone = src.SourceDone
	f.stats = src.Stats
	return nil
}
