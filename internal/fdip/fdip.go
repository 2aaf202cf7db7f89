// Package fdip implements the decoupled front end: the branch-prediction
// unit runs ahead of fetch along the predicted path, filling a fetch
// target queue (FTQ) of fetch regions, and a fetch-directed instruction
// prefetcher (Reinman, Calder, Austin, MICRO'99 — Table I of the UBS
// paper) probes the L1-I for upcoming regions and prefetches misses.
//
// The simulator is trace driven: the runahead walks the committed path and
// asks the BPU for a prediction at every branch. A mispredicted branch
// stops the runahead (everything past it would be wrong-path) until the
// core reports resolution.
package fdip

import (
	"ubscache/internal/bpu"
	"ubscache/internal/icache"
	"ubscache/internal/trace"
)

// Item is one instruction in the FTQ, annotated with its prediction
// outcome.
type Item struct {
	In trace.Instr
	// Mispredict: fetch must stop after this instruction until the core
	// resolves it (execute-time redirect).
	Mispredict bool
	// Resteer: a short decode-time bubble follows this instruction
	// (BTB miss on a direct branch).
	Resteer bool
}

// Config parameterises the FTQ.
type Config struct {
	// Regions is the FTQ capacity in fetch regions (Table I: 128). A
	// region ends at a predicted-taken branch.
	Regions int
	// MaxInstrs bounds the queue in instructions as a safety net.
	MaxInstrs int
	// Prefetch enables FDIP prefetching of enqueued regions.
	Prefetch bool
	// PrefetchWindow bounds how far ahead of the fetch head (in queued
	// instructions) prefetches are issued. FDIP walks the FTQ in order; a
	// bounded window keeps prefetches timely instead of racing hundreds
	// of blocks ahead whenever fetch stalls.
	PrefetchWindow int
}

// DefaultConfig mirrors Table I.
func DefaultConfig() Config {
	return Config{Regions: 128, MaxInstrs: 1024, Prefetch: true, PrefetchWindow: 192}
}

// Stats counts runahead events.
type Stats struct {
	Enqueued     uint64
	Regions      uint64
	BlockedFills uint64 // fill attempts while blocked on a mispredict
}

// FTQ is the fetch target queue plus the runahead walker.
type FTQ struct {
	cfg Config
	src trace.Source
	bp  *bpu.BPU
	ic  icache.Frontend

	// head indexes st.Queue's first live item: the queue is
	// st.Queue[head:].
	head int
	st   State
}

// New builds an FTQ over the given trace source, BPU and L1-I frontend.
func New(cfg Config, src trace.Source, bp *bpu.BPU, ic icache.Frontend) *FTQ {
	if cfg.Regions == 0 {
		cfg = DefaultConfig()
	}
	// The backing array is sized for the worst case of live items
	// (MaxInstrs) plus an equal dead prefix, so tail's compact-in-place
	// recycles it forever: the queue never reallocates after construction.
	return &FTQ{cfg: cfg, src: src, bp: bp, ic: ic,
		st: State{Queue: make([]Item, 0, 2*cfg.MaxInstrs)}}
}

// Stats returns the accumulated counters.
func (f *FTQ) Stats() Stats { return f.st.Stats }

// Blocked reports whether the runahead is halted on a mispredict.
func (f *FTQ) Blocked() bool { return f.st.Blocked }

// SourceDone reports trace exhaustion.
func (f *FTQ) SourceDone() bool { return f.st.SourceDone }

// Len returns the number of queued instructions.
func (f *FTQ) Len() int { return len(f.st.Queue) - f.head }

// Peek returns the i-th queued item without consuming it.
func (f *FTQ) Peek(i int) *Item {
	if f.head+i >= len(f.st.Queue) {
		return nil
	}
	return &f.st.Queue[f.head+i]
}

// Pop consumes n items from the head.
func (f *FTQ) Pop(n int) {
	if f.head+n > len(f.st.Queue) {
		panic("fdip: pop past queue end")
	}
	for i := 0; i < n; i++ {
		if f.st.Queue[f.head+i].In.TakenBranch() {
			f.st.Regions--
		}
	}
	f.head += n
	f.st.ConsumedTot += uint64(n)
	if f.st.PrefCursor < f.st.ConsumedTot {
		f.st.PrefCursor = f.st.ConsumedTot
	}
	if f.head == len(f.st.Queue) {
		// Drained: rewind to the start of the backing array, zeroing the
		// consumed items so they cannot linger or be resurrected.
		clear(f.st.Queue)
		f.st.Queue = f.st.Queue[:0]
		f.head = 0
	}
}

// tail returns the free slot just past the queue's end, which Fill
// writes the next instruction into and then commits by extending the
// queue over it. When the backing array has no spare capacity it first
// compacts the live window to the front, zeroing the vacated tail so
// consumed items are never retained or resurrected. The array never
// grows: Fill calls tail only while fewer than MaxInstrs items are live,
// so a full array (2*MaxInstrs) has a dead prefix of more than MaxInstrs
// to reclaim, and a restore keeps the array (RestoreInPlace rejects a
// longer image).
func (f *FTQ) tail() *Item {
	if len(f.st.Queue) == cap(f.st.Queue) {
		live := copy(f.st.Queue, f.st.Queue[f.head:])
		clear(f.st.Queue[live:])
		f.st.Queue = f.st.Queue[:live]
		f.head = 0
	}
	return &f.st.Queue[:len(f.st.Queue)+1][len(f.st.Queue)]
}

// Resume restarts the runahead after the core resolved the mispredicted
// branch at the FTQ's tail.
func (f *FTQ) Resume() { f.st.Blocked = false }

// Fill runs the BPU ahead of fetch, enqueuing instructions and issuing
// FDIP prefetches, until the FTQ is full, the runahead hits a mispredicted
// branch, or the trace ends.
func (f *FTQ) Fill(now uint64) {
	if f.st.Blocked {
		f.st.Stats.BlockedFills++
		f.issuePrefetches(now)
		return
	}
	for f.st.Regions < f.cfg.Regions && f.Len() < f.cfg.MaxInstrs && !f.st.Blocked {
		it := f.tail()
		var ok bool
		if it.In, ok = f.src.Next(); !ok {
			*it = Item{}
			f.st.SourceDone = true
			break
		}
		var r bpu.Result
		if it.In.Class.IsBranch() {
			r = f.bp.PredictAndTrain(&it.In)
		}
		it.Mispredict, it.Resteer = r.Mispredict, r.Resteer
		f.st.Queue = f.st.Queue[:len(f.st.Queue)+1]
		f.st.EnqueuedTot++
		f.st.Stats.Enqueued++
		if it.In.TakenBranch() {
			f.st.Regions++
			f.st.Stats.Regions++
		}
		if it.Mispredict {
			f.st.Blocked = true
		}
	}
	f.issuePrefetches(now)
}

// issuePrefetches walks the FTQ in order, issuing FDIP prefetches for
// queued instructions within PrefetchWindow of the fetch head.
func (f *FTQ) issuePrefetches(now uint64) {
	if !f.cfg.Prefetch {
		return
	}
	limit := f.st.EnqueuedTot
	if f.cfg.PrefetchWindow > 0 {
		if lim := f.st.ConsumedTot + uint64(f.cfg.PrefetchWindow); lim < limit {
			limit = lim
		}
	}
	for f.st.PrefCursor < limit {
		it := f.Peek(int(f.st.PrefCursor - f.st.ConsumedTot))
		f.prefetch(&it.In, now)
		f.st.PrefCursor++
	}
}

// Regions returns the number of complete fetch regions currently queued
// (a region ends at a predicted-taken branch).
func (f *FTQ) Regions() int { return f.st.Regions }

// prefetch issues FDIP prefetches for the instruction's span, split at
// 64B block boundaries. Every instruction's span is forwarded: frontends
// deduplicate cheaply, and range-aware designs (UBS) accumulate the whole
// predicted-path byte range per block.
func (f *FTQ) prefetch(in *trace.Instr, now uint64) {
	first := in.PC &^ 63
	last := (in.EndPC() - 1) &^ 63
	for b := first; b <= last; b += 64 {
		start := in.PC
		if start < b {
			start = b
		}
		end := in.EndPC()
		if end > b+64 {
			end = b + 64
		}
		f.ic.Prefetch(start, int(end-start), now)
	}
}
