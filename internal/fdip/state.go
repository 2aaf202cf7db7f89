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

// RestoreInPlace installs a State captured from an FTQ of the same
// configuration: fill decodes it into the FTQ's own State, in place, and
// the queue length is then checked against the capacity and the walk
// counters against the queue. A failed RestoreInPlace leaves the FTQ
// unusable. The caller positions the trace source at instruction
// EnqueuedTot (see sim.Machine.RestoreEncoded).
func (f *FTQ) RestoreInPlace(fill func(any) error) error {
	want := f.st
	if err := fill(&f.st); err != nil {
		return err
	}
	f.head = 0
	return check(&f.st, &want)
}

// State returns the FTQ's live state for checks that read a restored
// machine; the caller must not modify it. Its queue is the live window
// only right after a restore.
func (f *FTQ) State() *State { return &f.st }

// check validates an image against want, the FTQ's state as built.
func check(src, want *State) error {
	n := uint64(len(src.Queue))
	switch {
	case len(src.Queue) > cap(want.Queue):
		return fmt.Errorf("ftq: snapshot holds %d items, queue capacity is %d", len(src.Queue), cap(want.Queue))
	case src.EnqueuedTot < src.ConsumedTot || src.EnqueuedTot-src.ConsumedTot != n:
		return fmt.Errorf("ftq: snapshot counters enqueued %d, consumed %d disagree with %d queued items", src.EnqueuedTot, src.ConsumedTot, n)
	case src.PrefCursor < src.ConsumedTot || src.PrefCursor > src.EnqueuedTot:
		return fmt.Errorf("ftq: snapshot prefetch cursor %d outside the queue [%d,%d]", src.PrefCursor, src.ConsumedTot, src.EnqueuedTot)
	case src.Regions != regions(src.Queue):
		return fmt.Errorf("ftq: snapshot counts %d regions, its queue holds %d", src.Regions, regions(src.Queue))
	}
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
