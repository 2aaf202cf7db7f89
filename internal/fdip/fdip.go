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

	queue   []Item
	head    int
	regions int

	// Absolute item counters for the prefetch window.
	consumedTot uint64
	enqueuedTot uint64
	prefCursor  uint64

	// blocked: a mispredicted branch was enqueued; the runahead halts
	// until Resume.
	blocked bool
	// sourceDone: the trace ended.
	sourceDone bool

	stats Stats
}

// New builds an FTQ over the given trace source, BPU and L1-I frontend.
func New(cfg Config, src trace.Source, bp *bpu.BPU, ic icache.Frontend) *FTQ {
	if cfg.Regions == 0 {
		cfg = DefaultConfig()
	}
	// The backing array is sized for the worst case of live items
	// (MaxInstrs) plus an equal dead prefix, so push's compact-in-place
	// recycles it forever: the queue never reallocates after construction.
	return &FTQ{cfg: cfg, src: src, bp: bp, ic: ic,
		queue: make([]Item, 0, 2*cfg.MaxInstrs)}
}

// Stats returns the accumulated counters.
func (f *FTQ) Stats() Stats { return f.stats }

// Blocked reports whether the runahead is halted on a mispredict.
func (f *FTQ) Blocked() bool { return f.blocked }

// SourceDone reports trace exhaustion.
func (f *FTQ) SourceDone() bool { return f.sourceDone }

// Len returns the number of queued instructions.
func (f *FTQ) Len() int { return len(f.queue) - f.head }

// Peek returns the i-th queued item without consuming it.
func (f *FTQ) Peek(i int) *Item {
	if f.head+i >= len(f.queue) {
		return nil
	}
	return &f.queue[f.head+i]
}

// Pop consumes n items from the head.
func (f *FTQ) Pop(n int) {
	if f.head+n > len(f.queue) {
		panic("fdip: pop past queue end")
	}
	for i := 0; i < n; i++ {
		if f.queue[f.head+i].In.TakenBranch() {
			f.regions--
		}
	}
	f.head += n
	f.consumedTot += uint64(n)
	if f.prefCursor < f.consumedTot {
		f.prefCursor = f.consumedTot
	}
	if f.head == len(f.queue) {
		// Drained: rewind to the start of the backing array, zeroing the
		// consumed items so they cannot linger or be resurrected.
		clear(f.queue)
		f.queue = f.queue[:0]
		f.head = 0
	}
}

// push enqueues one item. When the backing array runs out of spare
// capacity it compacts the live window to the front — zeroing the vacated
// tail so consumed items are never retained or resurrected — instead of
// growing, so the steady-state fill cycle performs no allocations.
func (f *FTQ) push(item Item) {
	if f.head > 0 && len(f.queue) == cap(f.queue) {
		live := copy(f.queue, f.queue[f.head:])
		clear(f.queue[live:])
		f.queue = f.queue[:live]
		f.head = 0
	}
	f.queue = append(f.queue, item)
}

// Resume restarts the runahead after the core resolved the mispredicted
// branch at the FTQ's tail.
func (f *FTQ) Resume() { f.blocked = false }

// Fill runs the BPU ahead of fetch, enqueuing instructions and issuing
// FDIP prefetches, until the FTQ is full, the runahead hits a mispredicted
// branch, or the trace ends.
func (f *FTQ) Fill(now uint64) {
	if f.blocked {
		f.stats.BlockedFills++
		f.issuePrefetches(now)
		return
	}
	for f.regions < f.cfg.Regions && f.Len() < f.cfg.MaxInstrs && !f.blocked {
		in, ok := f.src.Next()
		if !ok {
			f.sourceDone = true
			break
		}
		item := Item{In: in}
		if in.Class.IsBranch() {
			r := f.bp.PredictAndTrain(&in)
			item.Mispredict = r.Mispredict
			item.Resteer = r.Resteer
		}
		f.push(item)
		f.enqueuedTot++
		f.stats.Enqueued++
		if in.TakenBranch() {
			f.regions++
			f.stats.Regions++
		}
		if item.Mispredict {
			f.blocked = true
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
	limit := f.enqueuedTot
	if f.cfg.PrefetchWindow > 0 {
		if lim := f.consumedTot + uint64(f.cfg.PrefetchWindow); lim < limit {
			limit = lim
		}
	}
	for f.prefCursor < limit {
		it := f.Peek(int(f.prefCursor - f.consumedTot))
		f.prefetch(&it.In, now)
		f.prefCursor++
	}
}

// Regions returns the number of complete fetch regions currently queued
// (a region ends at a predicted-taken branch).
func (f *FTQ) Regions() int { return f.regions }

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
