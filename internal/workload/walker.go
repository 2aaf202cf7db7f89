package workload

import (
	"fmt"

	"ubscache/internal/trace"
)

// Walker interprets a Program's control-flow graph and emits its dynamic
// instruction stream. It implements trace.Source and never terminates: a
// top-level dispatcher keeps issuing "requests" (entry-function invocations)
// drawn from a drifting working set, modelling a server's request loop.
//
// A Walker is deterministic: two walkers over the same Program produce
// identical streams.
type Walker struct {
	prog *Program
	cfg  Config
	rng  RNG

	// Interpreter state.
	stack []Frame
	fn    int // current function
	blk   int // current block
	pos   int // next instruction index within the block
	state walkState

	// Dispatcher state.
	wsStart  int
	requests int

	emitted uint64
}

// Frame is one call-stack entry: the caller's function and the block
// its call returns to.
type Frame struct {
	Fn, ResumeBlk int
}

// walkState tracks whether the interpreter is inside a function or in the
// synthetic two-instruction dispatcher loop. The dispatcher models a
// server's request loop: an indirect call at CodeBase invokes the next
// request's entry function, whose final return comes back to CodeBase+4,
// where a jump closes the loop. This keeps the emitted stream control-flow
// continuous and keeps calls and returns balanced for the RAS.
type walkState uint8

const (
	stateDispCall walkState = iota // next: emit the dispatcher call at CodeBase
	stateDispJump                  // next: emit the loop-back jump at CodeBase+4
	stateInFn                      // next: emit from the current block
)

// NewWalker returns a Walker over p, seeded from the program's config.
func NewWalker(p *Program) *Walker {
	w := &Walker{
		prog: p,
		cfg:  p.Config(),
		// The call stack's depth is bounded by the program's static level
		// structure; pre-sizing keeps the emit path allocation-free.
		stack: make([]Frame, 0, 64),
	}
	w.rng.Seed(w.cfg.Seed ^ 0x5eed_0001)
	return w
}

// Emitted returns the number of instructions produced so far.
func (w *Walker) Emitted() uint64 { return w.emitted }

// Depth returns the current dynamic call depth (0 between requests).
func (w *Walker) Depth() int { return len(w.stack) }

// Next produces the next dynamic instruction. It always reports true.
func (w *Walker) Next() (trace.Instr, bool) {
	switch w.state {
	case stateDispJump:
		w.emitted++
		w.state = stateDispCall
		return trace.Instr{PC: w.cfg.CodeBase + 4, Size: InstrBytes,
			Class: trace.ClassDirectJump, Target: w.cfg.CodeBase, Taken: true}, true
	case stateDispCall:
		w.dispatch()
		w.emitted++
		w.state = stateInFn
		entry := &w.prog.Funcs[w.fn]
		return trace.Instr{PC: w.cfg.CodeBase, Size: InstrBytes,
			Class: trace.ClassIndirectCall, Target: entry.Blocks[entry.Entry].Addr,
			Taken: true}, true
	}
	f := &w.prog.Funcs[w.fn]
	b := &f.Blocks[w.blk]
	pc := b.InstrAddr(w.pos)
	lastInBlock := w.pos == b.NInstr-1
	isTerm := lastInBlock && b.Term.Kind != TermFallthrough

	var in trace.Instr
	in.PC = pc
	in.Size = uint8(b.InstrSize(w.pos))

	if isTerm {
		in = w.terminate(in, b)
	} else {
		in = w.plain(in)
		if lastInBlock {
			// Fallthrough block edge.
			w.advance(b.Next)
		} else {
			w.pos++
		}
	}
	w.emitted++
	return in, true
}

// plain fills in a non-control instruction (ALU, load, or store).
func (w *Walker) plain(in trace.Instr) trace.Instr {
	x := w.rng.Float64()
	switch {
	case x < w.cfg.LoadFrac:
		in.Class = trace.ClassLoad
		in.MemAddr = w.dataAddr()
	case x < w.cfg.LoadFrac+w.cfg.StoreFrac:
		in.Class = trace.ClassStore
		in.MemAddr = w.dataAddr()
	default:
		in.Class = trace.ClassOther
	}
	// Short dependence distances create realistic ILP limits.
	if w.rng.Float64() < 0.5 {
		in.Dep1 = uint16(1 + w.rng.Intn(12))
	}
	if w.rng.Float64() < 0.15 {
		in.Dep2 = uint16(1 + w.rng.Intn(24))
	}
	return in
}

// dataAddr produces a load/store effective address: mostly stack-frame
// relative, otherwise the current function's heap region, with a small
// global-random tail.
func (w *Walker) dataAddr() uint64 {
	x := w.rng.Float64()
	switch {
	case x < 0.55:
		sp := w.cfg.StackBase - uint64(len(w.stack)+1)*w.cfg.FrameBytes
		return sp + uint64(w.rng.Intn(int(w.cfg.FrameBytes)))&^7
	case x < 0.92:
		base := w.prog.Funcs[w.fn].DataBase
		return base + uint64(w.rng.Intn(4096))&^7
	default:
		return 0x1000_0000 + (uint64(w.rng.Int63())%w.cfg.DataFootprint)&^7
	}
}

// terminate realises a block's terminator as a branch instruction and moves
// the interpreter to the next block.
func (w *Walker) terminate(in trace.Instr, b *Block) trace.Instr {
	f := &w.prog.Funcs[w.fn]
	switch b.Term.Kind {
	case TermCond:
		in.Class = trace.ClassCondBranch
		in.Target = f.Blocks[b.Term.TargetBlock].Addr
		in.Taken = w.rng.Float64() < b.Term.TakenProb
		if in.Taken {
			w.advance(b.Term.TargetBlock)
		} else {
			w.advance(b.Next)
		}
	case TermJump:
		in.Class = trace.ClassDirectJump
		in.Target = f.Blocks[b.Term.TargetBlock].Addr
		in.Taken = true
		w.advance(b.Term.TargetBlock)
	case TermCall, TermIndirectCall:
		callee := b.Term.Callee
		if b.Term.Kind == TermIndirectCall {
			callee = b.Term.Callees[w.rng.Intn(len(b.Term.Callees))]
			in.Class = trace.ClassIndirectCall
		} else {
			in.Class = trace.ClassCall
		}
		cf := &w.prog.Funcs[callee]
		in.Target = cf.Blocks[cf.Entry].Addr
		in.Taken = true
		// The stack is pre-sized to the static depth bound at construction.
		w.stack = append(w.stack, Frame{Fn: w.fn, ResumeBlk: b.Next})
		w.fn, w.blk, w.pos = callee, cf.Entry, 0
	case TermReturn:
		in.Class = trace.ClassReturn
		in.Taken = true
		if len(w.stack) == 0 {
			// Request finished: return to the dispatcher loop.
			in.Target = w.cfg.CodeBase + 4
			w.state = stateDispJump
		} else {
			fr := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			rf := &w.prog.Funcs[fr.Fn]
			in.Target = rf.Blocks[fr.ResumeBlk].Addr
			w.fn, w.blk, w.pos = fr.Fn, fr.ResumeBlk, 0
		}
	default:
		panic("workload: fallthrough reached terminate")
	}
	return in
}

// advance moves the interpreter to intra-function block next.
func (w *Walker) advance(next int) {
	if next < 0 {
		panic("workload: advance past function end")
	}
	w.blk, w.pos = next, 0
}

// dispatch starts the next request: it picks an entry function from the
// current working set and drifts the working set between phases.
func (w *Walker) dispatch() {
	if w.cfg.PhaseLen > 0 && w.requests > 0 && w.requests%w.cfg.PhaseLen == 0 {
		drift := w.cfg.DriftFuncs
		if drift == 0 {
			drift = maxInt(1, w.cfg.WorkingSetFuncs/8)
		}
		w.wsStart = (w.wsStart + drift) % len(w.prog.Funcs)
	}
	w.requests++
	// Popularity skew within the working set: the fourth power of the
	// uniform variate approximates a Zipf-like distribution (density
	// proportional to rank^-0.75), giving a hot core of services and a
	// long tail — the property that puts the miss-curve knee between the
	// 32KB and 64KB cache sizes.
	u := w.rng.Float64()
	off := int(u * u * u * u * float64(w.cfg.WorkingSetFuncs))
	if off >= w.cfg.WorkingSetFuncs {
		off = w.cfg.WorkingSetFuncs - 1
	}
	fi := (w.wsStart + off) % len(w.prog.Funcs)
	// Entry functions must be at level 0 so the static depth bound holds.
	for w.prog.Funcs[fi].Level != 0 {
		fi = (fi + 1) % len(w.prog.Funcs)
	}
	w.fn = fi
	w.blk = w.prog.Funcs[fi].Entry
	w.pos = 0
	w.stack = w.stack[:0]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// New builds the program for cfg and returns a Walker over it.
func New(cfg Config) (*Walker, error) {
	p, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return NewWalker(p), nil
}

// State is the checkpointable image of a Walker: the generator register,
// the interpreter's call stack and cursor, and the dispatcher's position.
// Together with the Program, which is rebuilt from the workload's config,
// it determines the rest of the stream, so a restored walker continues
// without replaying what came before. Emitted doubles as the replay
// cursor check: it must equal the FTQ's EnqueuedTot (sim.Machine.Restore).
//
//ubs:state
type State struct {
	RNG      RNG
	Stack    []Frame
	Fn       int
	Blk      int
	Pos      int
	Mode     uint8 // the walkState
	WSStart  int
	Requests int
	Emitted  uint64
}

// Snapshot copies the walker's mutable state into dst, reusing dst's
// stack storage.
func (w *Walker) Snapshot(dst *State) {
	dst.RNG = w.rng
	dst.Stack = append(dst.Stack[:0], w.stack...)
	dst.Fn, dst.Blk, dst.Pos = w.fn, w.blk, w.pos
	dst.Mode = uint8(w.state)
	dst.WSStart = w.wsStart
	dst.Requests = w.requests
	dst.Emitted = w.emitted
}

// Restore installs a State captured from a walker over the same Program.
// The image comes from file bytes, so every index is checked against the
// program first: a bad image is an error, never a panic in a later Next.
// The stack is filled in place, so Next stays allocation-free.
func (w *Walker) Restore(src *State) error {
	if err := w.check(src); err != nil {
		return fmt.Errorf("workload %s: walker image: %w", w.cfg.Name, err)
	}
	w.rng = src.RNG
	w.stack = append(w.stack[:0], src.Stack...)
	w.fn, w.blk, w.pos = src.Fn, src.Blk, src.Pos
	w.state = walkState(src.Mode)
	w.wsStart = src.WSStart
	w.requests = src.Requests
	w.emitted = src.Emitted
	return nil
}

// check validates an image against this walker's program.
func (w *Walker) check(src *State) error {
	if src.RNG.Tap < 0 || src.RNG.Tap >= rngLen || src.RNG.Feed < 0 || src.RNG.Feed >= rngLen {
		return fmt.Errorf("generator taps %d/%d outside [0,%d)", src.RNG.Tap, src.RNG.Feed, rngLen)
	}
	if len(src.Stack) > cap(w.stack) {
		return fmt.Errorf("call depth %d exceeds the stack capacity %d", len(src.Stack), cap(w.stack))
	}
	for i, fr := range src.Stack {
		if !w.validBlock(fr.Fn, fr.ResumeBlk) {
			return fmt.Errorf("stack frame %d (function %d, block %d) is not in the program", i, fr.Fn, fr.ResumeBlk)
		}
	}
	if !w.validBlock(src.Fn, src.Blk) || src.Pos < 0 || src.Pos >= w.prog.Funcs[src.Fn].Blocks[src.Blk].NInstr {
		return fmt.Errorf("cursor (function %d, block %d, instruction %d) is not in the program", src.Fn, src.Blk, src.Pos)
	}
	if walkState(src.Mode) > stateInFn {
		return fmt.Errorf("unknown walk state %d", src.Mode)
	}
	if src.WSStart < 0 || src.WSStart >= len(w.prog.Funcs) {
		return fmt.Errorf("working-set start %d outside [0,%d)", src.WSStart, len(w.prog.Funcs))
	}
	if src.Requests < 0 {
		return fmt.Errorf("negative request count %d", src.Requests)
	}
	return nil
}

// validBlock reports whether (fn, blk) names a block of the program.
func (w *Walker) validBlock(fn, blk int) bool {
	return fn >= 0 && fn < len(w.prog.Funcs) && blk >= 0 && blk < len(w.prog.Funcs[fn].Blocks)
}
