package workload

import (
	"fmt"
	"sync"

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
	st   State
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
type walkState = uint8

const (
	stateDispCall walkState = iota // next: emit the dispatcher call at CodeBase
	stateDispJump                  // next: emit the loop-back jump at CodeBase+4
	stateInFn                      // next: emit from the current block
)

// NewWalker returns a Walker over p, its generator a copy of the one
// Build seeded from the program's config.
func NewWalker(p *Program) *Walker {
	return &Walker{
		prog: p,
		cfg:  p.Config(),
		st:   State{RNG: p.rng, Stack: make([]Frame, 0, stackCap)},
	}
}

// stackCap is the walker's call-stack capacity. The stack's depth is
// bounded by the program's static level structure; pre-sizing keeps the
// emit path allocation-free.
const stackCap = 64

// Emitted returns the number of instructions produced so far.
func (w *Walker) Emitted() uint64 { return w.st.Emitted }

// Depth returns the current dynamic call depth (0 between requests).
func (w *Walker) Depth() int { return len(w.st.Stack) }

// Next produces the next dynamic instruction. It always reports true.
func (w *Walker) Next() (trace.Instr, bool) {
	switch w.st.Mode {
	case stateDispJump:
		w.st.Emitted++
		w.st.Mode = stateDispCall
		return trace.Instr{PC: w.cfg.CodeBase + 4, Size: InstrBytes,
			Class: trace.ClassDirectJump, Target: w.cfg.CodeBase, Taken: true}, true
	case stateDispCall:
		w.dispatch()
		w.st.Emitted++
		w.st.Mode = stateInFn
		entry := &w.prog.Funcs[w.st.Fn]
		return trace.Instr{PC: w.cfg.CodeBase, Size: InstrBytes,
			Class: trace.ClassIndirectCall, Target: entry.Blocks[entry.Entry].Addr,
			Taken: true}, true
	}
	f := &w.prog.Funcs[w.st.Fn]
	b := &f.Blocks[w.st.Blk]
	pc := w.prog.InstrAddr(b, w.st.Pos)
	lastInBlock := w.st.Pos == b.NInstr-1
	isTerm := lastInBlock && b.Term.Kind != TermFallthrough

	var in trace.Instr
	in.PC = pc
	in.Size = uint8(w.prog.InstrSize(b, w.st.Pos))

	if isTerm {
		w.terminate(&in, b)
	} else {
		w.plain(&in)
		if lastInBlock {
			// Fallthrough block edge.
			w.advance(b.Next)
		} else {
			w.st.Pos++
		}
	}
	w.st.Emitted++
	return in, true
}

// plain fills in a non-control instruction (ALU, load, or store).
func (w *Walker) plain(in *trace.Instr) {
	x := w.st.RNG.Float64()
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
	if w.st.RNG.Float64() < 0.5 {
		in.Dep1 = uint16(1 + w.st.RNG.Intn(12))
	}
	if w.st.RNG.Float64() < 0.15 {
		in.Dep2 = uint16(1 + w.st.RNG.Intn(24))
	}
}

// dataAddr produces a load/store effective address: mostly stack-frame
// relative, otherwise the current function's heap region, with a small
// global-random tail.
func (w *Walker) dataAddr() uint64 {
	x := w.st.RNG.Float64()
	switch {
	case x < 0.55:
		sp := w.cfg.StackBase - uint64(len(w.st.Stack)+1)*w.cfg.FrameBytes
		return sp + uint64(w.st.RNG.Intn(int(w.cfg.FrameBytes)))&^7
	case x < 0.92:
		base := w.prog.Funcs[w.st.Fn].DataBase
		return base + uint64(w.st.RNG.Intn(4096))&^7
	default:
		return 0x1000_0000 + (uint64(w.st.RNG.Int63())%w.cfg.DataFootprint)&^7
	}
}

// terminate fills in a block's terminator as a branch instruction and
// moves the interpreter to the next block.
func (w *Walker) terminate(in *trace.Instr, b *Block) {
	f := &w.prog.Funcs[w.st.Fn]
	switch b.Term.Kind {
	case TermCond:
		in.Class = trace.ClassCondBranch
		in.Target = f.Blocks[b.Term.TargetBlock].Addr
		in.Taken = w.st.RNG.Float64() < b.Term.TakenProb
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
			callees := w.prog.Callees(&b.Term)
			callee = callees[w.st.RNG.Intn(len(callees))]
			in.Class = trace.ClassIndirectCall
		} else {
			in.Class = trace.ClassCall
		}
		cf := &w.prog.Funcs[callee]
		in.Target = cf.Blocks[cf.Entry].Addr
		in.Taken = true
		// The stack is pre-sized to the static depth bound at construction.
		w.st.Stack = append(w.st.Stack, Frame{Fn: w.st.Fn, ResumeBlk: b.Next})
		w.st.Fn, w.st.Blk, w.st.Pos = callee, cf.Entry, 0
	case TermReturn:
		in.Class = trace.ClassReturn
		in.Taken = true
		if len(w.st.Stack) == 0 {
			// Request finished: return to the dispatcher loop.
			in.Target = w.cfg.CodeBase + 4
			w.st.Mode = stateDispJump
		} else {
			fr := w.st.Stack[len(w.st.Stack)-1]
			w.st.Stack = w.st.Stack[:len(w.st.Stack)-1]
			rf := &w.prog.Funcs[fr.Fn]
			in.Target = rf.Blocks[fr.ResumeBlk].Addr
			w.st.Fn, w.st.Blk, w.st.Pos = fr.Fn, fr.ResumeBlk, 0
		}
	default:
		panic("workload: fallthrough reached terminate")
	}
}

// advance moves the interpreter to intra-function block next.
func (w *Walker) advance(next int) {
	if next < 0 {
		panic("workload: advance past function end")
	}
	w.st.Blk, w.st.Pos = next, 0
}

// dispatch starts the next request: it picks an entry function from the
// current working set and drifts the working set between phases.
func (w *Walker) dispatch() {
	if w.cfg.PhaseLen > 0 && w.st.Requests > 0 && w.st.Requests%w.cfg.PhaseLen == 0 {
		drift := w.cfg.DriftFuncs
		if drift == 0 {
			drift = maxInt(1, w.cfg.WorkingSetFuncs/8)
		}
		w.st.WSStart = (w.st.WSStart + drift) % len(w.prog.Funcs)
	}
	w.st.Requests++
	// Popularity skew within the working set: the fourth power of the
	// uniform variate approximates a Zipf-like distribution (density
	// proportional to rank^-0.75), giving a hot core of services and a
	// long tail — the property that puts the miss-curve knee between the
	// 32KB and 64KB cache sizes.
	u := w.st.RNG.Float64()
	off := int(u * u * u * u * float64(w.cfg.WorkingSetFuncs))
	if off >= w.cfg.WorkingSetFuncs {
		off = w.cfg.WorkingSetFuncs - 1
	}
	fi := (w.st.WSStart + off) % len(w.prog.Funcs)
	// Entry functions must be at level 0 so the static depth bound holds.
	for w.prog.Funcs[fi].Level != 0 {
		fi = (fi + 1) % len(w.prog.Funcs)
	}
	w.st.Fn = fi
	w.st.Blk = w.prog.Funcs[fi].Entry
	w.st.Pos = 0
	w.st.Stack = w.st.Stack[:0]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// New returns a Walker over the program for cfg. Calls with equal
// configs share one program, built by the first of them (see last).
func New(cfg Config) (*Walker, error) {
	last.mu.Lock()
	e := last.e
	if e == nil || e.cfg != cfg {
		e = &built{cfg: cfg}
		last.e = e
		last.builds++
	}
	last.mu.Unlock()
	e.once.Do(func() { e.p, e.err = Build(cfg) })
	if e.err != nil {
		return nil, e.err
	}
	return NewWalker(e.p), nil
}

// last holds the program New built last, so that a sweep, a ubsd stream
// or a checkpoint resume, which open one workload over and over, build
// it once. Like a sync.Pool it is package state no caller can observe
// but in time and memory: it caches a pure function (Build) of a
// comparable key (Config, under ==), and its values are immutable, as a
// Walker only reads its program and never hands it out. (== equates -0
// and 0, which Build's uses of Config's floats treat alike.) It keeps
// one entry, which another config replaces, so at most one program
// outlives its walkers. builds counts the entries made, one Build each.
var last struct {
	mu     sync.Mutex
	e      *built
	builds int
}

// built is one program New shares. Concurrent callers with its config
// wait on once for the same build.
type built struct {
	cfg  Config
	once sync.Once
	p    *Program
	err  error
}

// State is a Walker's mutable state, the form the walker keeps it in and
// the checkpoint stores: the generator register, the interpreter's call
// stack and cursor, and the dispatcher's position. Together with the
// Program, which is rebuilt from the workload's config, it determines
// the rest of the stream, so a restored walker continues without
// replaying what came before. Emitted doubles as the replay cursor
// check: it must equal the FTQ's EnqueuedTot (sim.Machine.RestoreEncoded).
type State struct {
	RNG RNG
	// Interpreter state.
	Stack []Frame
	Fn    int   // current function
	Blk   int   // current block
	Pos   int   // next instruction index within the block
	Mode  uint8 // a walkState
	// Dispatcher state.
	WSStart  int
	Requests int
	Emitted  uint64
}

// Snapshot copies the walker's mutable state into dst; dst shares no
// memory with the walker.
func (w *Walker) Snapshot(dst *State) {
	stack := dst.Stack
	*dst = w.st
	dst.Stack = append(stack[:0], w.st.Stack...)
}

// RestoreInPlace fills the walker's own State in place through fill,
// which decodes into the value it is handed, for an image captured from
// a walker over the same Program. The image comes from file bytes, so
// every index is then checked against the program: a bad image is an
// error, never a panic in a later Next. A failed RestoreInPlace leaves
// the walker unusable.
func (w *Walker) RestoreInPlace(fill func(any) error) error {
	if err := fill(&w.st); err != nil {
		return err
	}
	return w.check(&w.st)
}

// check validates an image against this walker's program.
func (w *Walker) check(src *State) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("workload %s: walker image: %w", w.cfg.Name, err)
		}
	}()
	if src.RNG.Tap < 0 || src.RNG.Tap >= rngLen || src.RNG.Feed < 0 || src.RNG.Feed >= rngLen {
		return fmt.Errorf("generator taps %d/%d outside [0,%d)", src.RNG.Tap, src.RNG.Feed, rngLen)
	}
	if len(src.Stack) > stackCap {
		return fmt.Errorf("call depth %d exceeds the stack capacity %d", len(src.Stack), stackCap)
	}
	for i, fr := range src.Stack {
		if !w.validBlock(fr.Fn, fr.ResumeBlk) {
			return fmt.Errorf("stack frame %d (function %d, block %d) is not in the program", i, fr.Fn, fr.ResumeBlk)
		}
	}
	if !w.validBlock(src.Fn, src.Blk) || src.Pos < 0 || src.Pos >= w.prog.Funcs[src.Fn].Blocks[src.Blk].NInstr {
		return fmt.Errorf("cursor (function %d, block %d, instruction %d) is not in the program", src.Fn, src.Blk, src.Pos)
	}
	if src.Mode > stateInFn {
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
