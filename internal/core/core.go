// Package core implements the out-of-order core timing model of Table I:
// a 4-wide fetch/decode/commit pipeline with a 224-entry ROB, a 97-entry
// scheduler window, 128/72-entry load/store queues, a decoupled FDIP front
// end, and per-cycle front-end stall attribution — the instrumentation
// behind the paper's Figure 8 (stall cycles covered) and Figure 10 (IPC).
package core

import (
	"fmt"

	"ubscache/internal/cache"
	"ubscache/internal/fdip"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/trace"
)

// StallReason attributes a zero-delivery fetch cycle.
type StallReason uint8

const (
	// StallNone: instructions were delivered this cycle.
	StallNone StallReason = iota
	// StallICache: the head fetch chunk's bytes are absent from the L1-I —
	// the paper's front-end stall metric.
	StallICache
	// StallMispredict: fetch is waiting for a mispredicted branch to
	// resolve and redirect.
	StallMispredict
	// StallResteer: a decode-time resteer bubble (BTB miss, direct target).
	StallResteer
	// StallBackpressure: the decode queue or ROB is full.
	StallBackpressure
	// StallFTQEmpty: the FTQ ran dry for another reason (trace end).
	StallFTQEmpty
)

var stallNames = [...]string{"none", "icache", "mispredict", "resteer", "backpressure", "ftq-empty"}

// String names the reason.
func (s StallReason) String() string {
	if int(s) < len(stallNames) {
		return stallNames[s]
	}
	return "stall(?)"
}

// Config holds the Table I core parameters.
type Config struct {
	FetchWidth  int // instructions per cycle
	FetchBytes  int // fetch bandwidth per cycle
	DecodeWidth int
	CommitWidth int
	ROBSize     int
	SchedSize   int
	LQSize      int
	SQSize      int
	DecodeQueue int
	// DecodeLat is the fetch-to-dispatch pipeline depth in cycles.
	DecodeLat uint64
	// RedirectLat is the extra redirect penalty after a mispredicted
	// branch executes.
	RedirectLat uint64
	// ResteerLat is the decode-resteer bubble length.
	ResteerLat uint64

	FTQ fdip.Config
}

// DefaultConfig mirrors Table I (4-wide, 224 ROB, 97 scheduler, 128/72
// LQ/SQ, 128-entry FTQ).
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		FetchBytes:  16,
		DecodeWidth: 4,
		CommitWidth: 4,
		ROBSize:     224,
		SchedSize:   97,
		LQSize:      128,
		SQSize:      72,
		DecodeQueue: 64,
		DecodeLat:   8,
		RedirectLat: 2,
		ResteerLat:  4,
		FTQ:         fdip.DefaultConfig(),
	}
}

// Stats accumulates the run's timing results.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	// Stalls[reason] counts fetch cycles delivering zero instructions.
	Stalls [6]uint64
	// Delivered counts instructions handed to decode.
	Delivered uint64
	Loads     uint64
	Stores    uint64
	Branches  uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// FrontEndStallFraction returns the fraction of cycles fetch was stalled
// on the instruction cache.
func (s Stats) FrontEndStallFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Stalls[StallICache]) / float64(s.Cycles)
}

// wheelSize is the timing wheel's horizon in cycles, a power of two.
// Completion distances (done - now) on the presets almost never reach
// it; the rare instruction due beyond it waits in the far list.
const wheelSize = 1024

// wheelSlot counts the dispatched instructions completing in one cycle.
type wheelSlot struct{ n, loads, stores int32 }

// inflight maintains the scheduler/LQ/SQ occupancy incrementally:
// counters rise at dispatch and fall when the clock passes each
// instruction's completion cycle. A timing wheel orders the expiries:
// slot done%wheelSize counts the instructions completing at cycle done,
// for every done in [next, next+wheelSize), and expire releases one slot
// per elapsed cycle. An instruction due later waits in far (capacity
// ROBSize, sized at construction) and moves into its slot once it comes
// within the horizon. The counters are, by construction, exactly
// |{e in ROB : e.Done >= next}| split by class: entries enter at
// dispatch (done is always > now then) and commit only removes entries
// whose completion already expired here. The wheel is derived state:
// RestoreInPlace rebuilds it from the ROB and Validate checks it against a
// scan.
type inflight struct {
	slots  [wheelSize]wheelSlot
	far    []ROBEntry // copies of the ROB entries due beyond the horizon
	next   uint64     // first cycle whose slot has not been released
	sched  int
	loads  int
	stores int
}

// add registers a dispatched instruction, completing at e.Done >= next.
func (f *inflight) add(e *ROBEntry) {
	f.sched++
	if e.IsLoad {
		f.loads++
	}
	if e.IsStore {
		f.stores++
	}
	if e.Done-f.next >= wheelSize {
		// far is pre-sized to ROBSize and holds only in-flight ROB entries.
		f.far = append(f.far, *e)
		return
	}
	f.slot(e)
}

// slot counts an instruction due within the horizon into its slot.
func (f *inflight) slot(e *ROBEntry) {
	s := &f.slots[e.Done&(wheelSize-1)]
	s.n++
	if e.IsLoad {
		s.loads++
	}
	if e.IsStore {
		s.stores++
	}
}

// expire releases every instruction whose completion cycle has been
// reached: one slot per cycle elapsed since the last call. Each released
// slot becomes the horizon's new last cycle, which far entries due then
// move into.
func (f *inflight) expire(now uint64) {
	for f.next <= now {
		s := &f.slots[f.next&(wheelSize-1)]
		f.sched -= int(s.n)
		f.loads -= int(s.loads)
		f.stores -= int(s.stores)
		*s = wheelSlot{}
		f.next++
		if len(f.far) > 0 {
			f.pullFar()
		}
	}
}

// pullFar moves the far entries that came within the horizon into their
// slots. Called after every one-cycle advance, so no far entry is ever
// overtaken by the horizon's start.
func (f *inflight) pullFar() {
	for i := 0; i < len(f.far); {
		if f.far[i].Done-f.next >= wheelSize {
			i++
			continue
		}
		f.slot(&f.far[i])
		last := len(f.far) - 1
		f.far[i] = f.far[last]
		f.far = f.far[:last]
	}
}

// Core wires the front end, the backend, and the memory system.
type Core struct {
	cfg Config
	ftq *fdip.FTQ
	ic  icache.Frontend
	dc  *mem.DataCache

	// decodeHead indexes st.Decode's first live item: the queue is
	// st.Decode[decodeHead:]. Draining by advancing the head (not
	// re-slicing) keeps the backing array reusable, so steady state
	// performs no allocations. It sits next to st's leading fields, so
	// the head and the queue share a cache line.
	decodeHead int
	st         State
	// busy tracks scheduler/LQ/SQ occupancy incrementally (see inflight).
	busy inflight
}

// New wires a core. dc may be nil (no data-side modelling).
func New(cfg Config, ftq *fdip.FTQ, ic icache.Frontend, dc *mem.DataCache) *Core {
	if cfg.FetchWidth == 0 {
		cfg = DefaultConfig()
	}
	c := &Core{
		cfg: cfg, ftq: ftq, ic: ic, dc: dc,
		st: State{
			ROB: make([]ROBEntry, cfg.ROBSize),
			// The decode FIFO's backing array covers its worst-case
			// occupancy (fetch stops pushing at DecodeQueue, plus one
			// in-flight fetch chunk), so decodeTail's compact-in-place keeps
			// every steady-state append within this capacity — the queue
			// never reallocates.
			Decode: make([]DecodeItem, 0, cfg.DecodeQueue+cfg.FetchWidth),
		},
	}
	c.busy.far = make([]ROBEntry, 0, cfg.ROBSize)
	return c
}

// Config returns the configuration the core runs with.
func (c *Core) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Core) Stats() Stats { return c.st.Stats }

// Instructions returns the retired-instruction count, Stats().Instructions
// without copying Stats; the simulation loop reads it every cycle.
func (c *Core) Instructions() uint64 { return c.st.Stats.Instructions }

// Cycles returns the cycle count since the last ResetStats, Stats().Cycles
// without copying Stats.
func (c *Core) Cycles() uint64 { return c.st.Stats.Cycles }

// ResetStats clears timing statistics (end of warmup) without touching
// microarchitectural state or the monotonic clock.
func (c *Core) ResetStats() { c.st.Stats = Stats{} }

// Clock returns the monotonic cycle count since construction.
func (c *Core) Clock() uint64 { return c.st.Clock }

// Cycle advances the model by one clock.
func (c *Core) Cycle() {
	now := c.st.Clock
	c.busy.expire(now)
	c.commit(now)
	c.dispatch(now)
	c.fetch(now)
	c.ftq.Fill(now)
	c.resolveRedirect(now)
	c.st.Clock++
	c.st.Stats.Cycles++
}

// Run executes until n instructions retire (or the trace ends). It
// returns false if the trace ended first.
func (c *Core) Run(n uint64) bool {
	target := c.st.Stats.Instructions + n
	for c.st.Stats.Instructions < target {
		if c.ftq.SourceDone() && c.ftq.Len() == 0 && c.st.ROBCount == 0 && c.decodeLen() == 0 {
			return false
		}
		c.Cycle()
	}
	return true
}

// RunUntil executes until instructions have retired or the cycle counter
// reaches cycleCeil, whichever comes first (both measured from the last
// stats reset, like Stats itself). It lets callers chop a long run into
// cycle-bounded slices — the heartbeat/cancellation windows of package
// sim — and returns false if the trace ended first.
func (c *Core) RunUntil(instructions, cycleCeil uint64) bool {
	for c.st.Stats.Instructions < instructions && c.st.Stats.Cycles < cycleCeil {
		if c.ftq.SourceDone() && c.ftq.Len() == 0 && c.st.ROBCount == 0 && c.decodeLen() == 0 {
			return false
		}
		c.Cycle()
	}
	return true
}

// commit retires completed instructions in order.
func (c *Core) commit(now uint64) {
	for n := 0; n < c.cfg.CommitWidth && c.st.ROBCount > 0; n++ {
		e := &c.st.ROB[c.st.ROBHead]
		if e.Done > now {
			return
		}
		c.st.Stats.Instructions++
		// The ring advances by compare-and-wrap, not a divide: ROBHead
		// stays below ROBSize (RestoreInPlace checks an image's).
		if c.st.ROBHead++; c.st.ROBHead == c.cfg.ROBSize {
			c.st.ROBHead = 0
		}
		c.st.ROBCount--
	}
}

// decodeLen returns the decode-queue occupancy.
func (c *Core) decodeLen() int { return len(c.st.Decode) - c.decodeHead }

// decodeTail appends a slot to the decode queue and returns it for the
// caller to fill. When the buffer runs out of spare capacity it first
// compacts the live window to the front. The buffer never grows: fetch
// appends at most FetchWidth items per chunk, and only while fewer than
// DecodeQueue are live, so a full buffer (DecodeQueue+FetchWidth) always
// has a consumed prefix to reclaim, and a restore keeps the buffer
// (check rejects a longer image).
func (c *Core) decodeTail() *DecodeItem {
	if len(c.st.Decode) == cap(c.st.Decode) {
		n := copy(c.st.Decode, c.st.Decode[c.decodeHead:])
		c.st.Decode = c.st.Decode[:n]
		c.decodeHead = 0
	}
	c.st.Decode = c.st.Decode[:len(c.st.Decode)+1]
	return &c.st.Decode[len(c.st.Decode)-1]
}

// popDecode drops the queue head, rewinding to the start of the backing
// array whenever the queue drains.
func (c *Core) popDecode() {
	c.decodeHead++
	if c.decodeHead == len(c.st.Decode) {
		c.st.Decode = c.st.Decode[:0]
		c.decodeHead = 0
	}
}

// dispatch moves instructions from the decode queue into the ROB,
// computing their completion times. Scheduler/LQ/SQ occupancy comes from
// the incrementally maintained counters in c.busy (expired at the top of
// Cycle), not from scanning the ROB.
func (c *Core) dispatch(now uint64) {
	if c.decodeLen() == 0 {
		return
	}
	width := c.cfg.DecodeWidth
	for width > 0 && c.decodeLen() > 0 && c.st.ROBCount < c.cfg.ROBSize {
		d := &c.st.Decode[c.decodeHead]
		if d.ReadyAt > now || c.busy.sched >= c.cfg.SchedSize {
			return
		}
		in := &d.Item.In
		if in.Class == trace.ClassLoad && c.busy.loads >= c.cfg.LQSize {
			return
		}
		if in.Class == trace.ClassStore && c.busy.stores >= c.cfg.SQSize {
			return
		}
		// Operand readiness from producer distances.
		ready := now
		for _, dep := range [2]uint16{in.Dep1, in.Dep2} {
			if dep == 0 || uint64(dep) > c.st.Seq {
				continue
			}
			if uint64(dep) >= uint64(len(c.st.DoneRing)) {
				continue
			}
			pd := c.st.DoneRing[(c.st.Seq-uint64(dep))%uint64(len(c.st.DoneRing))]
			if pd > ready {
				ready = pd
			}
		}
		var done uint64
		ctx := cache.AccessContext{PC: in.PC, Cycle: now}
		switch in.Class {
		case trace.ClassLoad:
			if c.dc != nil {
				dl, ok := c.dc.Load(in.MemAddr, ready, ctx)
				if !ok {
					return // L1-D MSHRs full: retry next cycle
				}
				done = dl
			} else {
				done = ready + 5
			}
			c.st.Stats.Loads++
		case trace.ClassStore:
			if c.dc != nil && !c.dc.Store(in.MemAddr, ready, ctx) {
				return
			}
			done = ready + 1
			c.st.Stats.Stores++
		default:
			done = ready + 1
			if in.Class.IsBranch() {
				c.st.Stats.Branches++
			}
		}
		if done <= now {
			done = now + 1
		}
		tail := c.st.ROBHead + c.st.ROBCount // both below ROBSize
		if tail >= c.cfg.ROBSize {
			tail -= c.cfg.ROBSize
		}
		e := &c.st.ROB[tail]
		*e = ROBEntry{
			Done:       done,
			Seq:        c.st.Seq,
			IsLoad:     in.Class == trace.ClassLoad,
			IsStore:    in.Class == trace.ClassStore,
			Mispredict: d.Item.Mispredict,
		}
		c.st.DoneRing[c.st.Seq%uint64(len(c.st.DoneRing))] = done
		c.st.Seq++
		c.st.ROBCount++
		c.busy.add(e)
		if d.Item.Mispredict {
			// The redirect reaches fetch when the branch executes.
			c.st.RedirectAt = done + c.cfg.RedirectLat
		}
		c.popDecode()
		width--
	}
}

// resolveRedirect unblocks the front end once a mispredicted branch has
// executed.
func (c *Core) resolveRedirect(now uint64) {
	if c.st.WaitMispredict && c.st.RedirectAt != 0 && now >= c.st.RedirectAt {
		c.st.WaitMispredict = false
		c.st.RedirectAt = 0
		c.ftq.Resume()
	}
}

// fetch builds one fetch chunk from the FTQ head and probes the L1-I.
// A chunk is a run of consecutive instructions limited by fetch width,
// fetch bytes, a 64B block boundary, and the first taken branch — exactly
// the fetch-range interface of §IV-A.
func (c *Core) fetch(now uint64) {
	if c.st.FetchBlocked > now {
		c.stall(c.st.BlockReason)
		return
	}
	if c.st.WaitMispredict {
		c.stall(StallMispredict)
		return
	}
	head := c.ftq.Peek(0)
	if head == nil {
		// The trace ended, or the runahead could not keep up this cycle
		// (it fills after fetch): an FTQ bubble either way.
		c.stall(StallFTQEmpty)
		return
	}
	if c.decodeLen() >= c.cfg.DecodeQueue {
		c.stall(StallBackpressure)
		return
	}
	// Build the chunk.
	start := head.In.PC
	block := start &^ 63
	bytes := 0
	count := 0
	endsMispredict, endsResteer := false, false
	for count < c.cfg.FetchWidth {
		it := c.ftq.Peek(count)
		if it == nil {
			break
		}
		pc := it.In.PC
		if count > 0 {
			prev := c.ftq.Peek(count - 1)
			if pc != prev.In.EndPC() {
				break // redirect boundary (should coincide with taken branch)
			}
		}
		if pc&^63 != block {
			break // never cross a 64B block in one access
		}
		if count > 0 && bytes+int(it.In.Size) > c.cfg.FetchBytes {
			// A single instruction wider than the fetch bandwidth (possible
			// only on variable-length ISAs) still fetches alone.
			break
		}
		bytes += int(it.In.Size)
		count++
		if it.Mispredict {
			endsMispredict = true
			break
		}
		if it.Resteer {
			endsResteer = true
			break
		}
		if it.In.TakenBranch() {
			break
		}
	}
	if count == 0 {
		c.stall(StallFTQEmpty)
		return
	}
	r := c.fetchRange(start, bytes, now)
	switch {
	case r.Kind == icache.Hit:
		readyAt := now + c.ic.Latency() + c.cfg.DecodeLat
		for i := 0; i < count; i++ {
			d := c.decodeTail()
			d.Item = *c.ftq.Peek(i)
			d.ReadyAt = readyAt
		}
		c.ftq.Pop(count)
		c.st.Stats.Delivered += uint64(count)
		if endsMispredict {
			c.st.WaitMispredict = true
		}
		if endsResteer {
			c.st.FetchBlocked = now + c.cfg.ResteerLat
			c.st.BlockReason = StallResteer
		}
	case !r.Issued:
		// MSHR full: retry next cycle; this is an instruction-supply stall.
		c.stall(StallICache)
	default:
		c.st.FetchBlocked = r.Complete
		c.st.BlockReason = StallICache
		c.stall(StallICache)
	}
}

// fetchRange probes the L1-I for [start, start+bytes), splitting at 64B
// block boundaries (variable-length instructions may straddle blocks; each
// probe stays within one block per the frontend contract). The combined
// result hits only if every piece hits; otherwise the first non-hit piece
// governs the stall.
func (c *Core) fetchRange(start uint64, bytes int, now uint64) icache.Result {
	end := start + uint64(bytes)
	for addr := start; addr < end; {
		blockEnd := (addr &^ 63) + 64
		n := int(end - addr)
		if blockEnd < end {
			n = int(blockEnd - addr)
		}
		r := c.ic.Fetch(addr, n, now)
		if r.Kind != icache.Hit {
			return r
		}
		addr += uint64(n)
	}
	return icache.Result{Kind: icache.Hit}
}

func (c *Core) stall(r StallReason) {
	c.st.Stats.Stalls[r]++
}

// Validate checks internal consistency; tests call it after runs. The
// occupancy counters must equal a brute-force scan of the ROB for the
// instructions still in flight.
func (c *Core) Validate() error {
	if c.st.ROBCount < 0 || c.st.ROBCount > c.cfg.ROBSize {
		return fmt.Errorf("core: ROB count %d out of range", c.st.ROBCount)
	}
	f := &c.busy
	var n, loads, stores int
	for i := 0; i < c.st.ROBCount; i++ {
		if e := &c.st.ROB[(c.st.ROBHead+i)%c.cfg.ROBSize]; e.Done >= c.st.Clock {
			n, loads, stores = n+1, loads+b2i(e.IsLoad), stores+b2i(e.IsStore)
		}
	}
	if n != f.sched || loads != f.loads || stores != f.stores {
		return fmt.Errorf("core: inflight counters %d/%d/%d disagree with the ROB's %d/%d/%d in flight",
			f.sched, f.loads, f.stores, n, loads, stores)
	}
	if f.next != c.st.Clock {
		return fmt.Errorf("core: inflight wheel at cycle %d, clock at %d", f.next, c.st.Clock)
	}
	if cap(f.far) != c.cfg.ROBSize {
		return fmt.Errorf("core: inflight far capacity %d, want ROB size %d", cap(f.far), c.cfg.ROBSize)
	}
	return nil
}

// b2i counts a flag.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
