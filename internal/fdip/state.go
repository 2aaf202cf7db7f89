package fdip

import "fmt"

// State is the FTQ's mutable state, the form the FTQ keeps it in and the
// checkpoint stores: the queue, the count of complete fetch regions in
// it, the absolute walk counters, the runahead flags and the counters.
// The image holds only the queue's live window; the FTQ keeps the offset
// of that window in its backing array outside State. EnqueuedTot counts
// exactly the successful src.Next() calls. It is the trace replay cursor
// for sources restored by replay, which a restored machine fast-forwards
// by that many instructions to land on the same next instruction, and
// the check on a restored walker image's emitted count. PrefCursor is
// the next queued instruction (by absolute count) FDIP prefetches.
type State struct {
	Queue       []Item
	Regions     int
	ConsumedTot uint64
	EnqueuedTot uint64
	PrefCursor  uint64
	// Blocked: a mispredicted branch was enqueued; the runahead halts
	// until Resume.
	Blocked bool
	// SourceDone: the trace ended.
	SourceDone bool
	Stats      Stats
}

// Snapshot copies the FTQ's mutable state into dst; dst shares no memory
// with the FTQ.
func (f *FTQ) Snapshot(dst *State) {
	queue := dst.Queue
	*dst = f.st
	dst.Queue = append(queue[:0], f.st.Queue[f.head:]...)
}

// Restore installs a State captured from an FTQ of the same
// configuration, after checking the queue length against the capacity
// and the walk counters against the queue. The caller is responsible
// for positioning the trace source at instruction EnqueuedTot (see
// sim.Machine.Restore).
func (f *FTQ) Restore(src *State) error {
	n := uint64(len(src.Queue))
	switch {
	case len(src.Queue) > cap(f.st.Queue):
		return fmt.Errorf("ftq: snapshot holds %d items, queue capacity is %d", len(src.Queue), cap(f.st.Queue))
	case src.EnqueuedTot < src.ConsumedTot || src.EnqueuedTot-src.ConsumedTot != n:
		return fmt.Errorf("ftq: snapshot counters enqueued %d, consumed %d disagree with %d queued items", src.EnqueuedTot, src.ConsumedTot, n)
	case src.PrefCursor < src.ConsumedTot || src.PrefCursor > src.EnqueuedTot:
		return fmt.Errorf("ftq: snapshot prefetch cursor %d outside the queue [%d,%d]", src.PrefCursor, src.ConsumedTot, src.EnqueuedTot)
	case src.Regions != regions(src.Queue):
		return fmt.Errorf("ftq: snapshot counts %d regions, its queue holds %d", src.Regions, regions(src.Queue))
	}
	queue := f.st.Queue
	f.st = *src
	f.st.Queue = append(queue[:0], src.Queue...)
	f.head = 0
	return nil
}

// regions counts the complete fetch regions in q: one per taken branch.
func regions(q []Item) int {
	n := 0
	for i := range q {
		if q[i].In.TakenBranch() {
			n++
		}
	}
	return n
}
