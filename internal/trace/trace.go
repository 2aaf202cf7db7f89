// Package trace defines the instruction trace model used throughout the
// simulator: a compact record per dynamic instruction, source abstractions
// for producing instruction streams, and a binary on-disk format with
// readers and writers.
//
// The simulator is trace driven, in the style of ChampSim: the trace is the
// committed (correct-path) instruction stream, and the front end replays it
// under a timing model. Traces may come from the synthetic workload
// generator (package workload) or from files written by cmd/tracegen.
package trace

import "fmt"

// Class categorises an instruction for the front end and the back end.
// Branch classes mirror the ChampSim taxonomy.
type Class uint8

const (
	// ClassOther is a plain ALU/other instruction with no memory access.
	ClassOther Class = iota
	// ClassLoad reads memory at MemAddr.
	ClassLoad
	// ClassStore writes memory at MemAddr.
	ClassStore
	// ClassCondBranch is a conditional direct branch; Taken tells the outcome.
	ClassCondBranch
	// ClassDirectJump is an unconditional direct jump (always taken).
	ClassDirectJump
	// ClassIndirectJump is an unconditional indirect jump (always taken).
	ClassIndirectJump
	// ClassCall is a direct call (always taken, pushes return address).
	ClassCall
	// ClassIndirectCall is an indirect call (always taken, pushes return address).
	ClassIndirectCall
	// ClassReturn is a function return (always taken, pops return address).
	ClassReturn

	numClasses = int(ClassReturn) + 1
)

var classNames = [numClasses]string{
	"other", "load", "store", "cond-branch", "direct-jump",
	"indirect-jump", "call", "indirect-call", "return",
}

// String returns a short human-readable class name.
func (c Class) String() string {
	if int(c) < numClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsBranch reports whether the class transfers control.
func (c Class) IsBranch() bool { return c >= ClassCondBranch }

// IsConditional reports whether the class is a conditional branch.
func (c Class) IsConditional() bool { return c == ClassCondBranch }

// IsUnconditional reports whether the class always redirects fetch.
func (c Class) IsUnconditional() bool { return c.IsBranch() && c != ClassCondBranch }

// IsCall reports whether the class pushes a return address.
func (c Class) IsCall() bool { return c == ClassCall || c == ClassIndirectCall }

// IsIndirect reports whether the branch target comes from a register.
func (c Class) IsIndirect() bool {
	return c == ClassIndirectJump || c == ClassIndirectCall || c == ClassReturn
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// Instr is one dynamic instruction of a trace.
//
// The zero value is a valid non-branch, non-memory instruction at PC 0. For
// the fixed-size ISA the simulator models, Size is 4; the field exists so
// that variable-length streams can be represented and analysed too.
type Instr struct {
	// PC is the virtual address of the instruction.
	PC uint64
	// Target is the control-flow target if the instruction is a taken
	// branch; it is ignored otherwise.
	Target uint64
	// MemAddr is the effective address for loads and stores; ignored
	// otherwise.
	MemAddr uint64
	// Dep1 and Dep2 are producer distances: this instruction consumes the
	// results of the Dep1-th and Dep2-th most recent older instructions
	// (1 = immediately preceding). Zero means no dependence. These stand in
	// for the register dependence information carried by ChampSim traces.
	Dep1, Dep2 uint16
	// Size is the instruction length in bytes.
	Size uint8
	// Class categorises the instruction.
	Class Class
	// Taken is the branch outcome for conditional branches; unconditional
	// branches are always taken.
	Taken bool
}

// IsBranch reports whether the instruction transfers control.
func (in *Instr) IsBranch() bool { return in.Class.IsBranch() }

// TakenBranch reports whether the instruction redirects fetch.
func (in *Instr) TakenBranch() bool {
	return in.Class.IsBranch() && (in.Taken || in.Class.IsUnconditional())
}

// NextPC returns the PC of the instruction that follows this one on the
// committed path.
func (in *Instr) NextPC() uint64 {
	if in.TakenBranch() {
		return in.Target
	}
	return in.PC + uint64(in.Size)
}

// EndPC returns the address one past the last byte of the instruction.
func (in *Instr) EndPC() uint64 { return in.PC + uint64(in.Size) }

// Source produces a stream of instructions. Next reports false when the
// stream is exhausted; infinite sources never report false.
type Source interface {
	Next() (Instr, bool)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() (Instr, bool)

// Next calls f.
func (f SourceFunc) Next() (Instr, bool) { return f() }

// Slice is a finite Source over a pre-materialised instruction sequence.
type Slice struct {
	ins []Instr
	pos int
}

// NewSlice returns a Source that yields ins in order, once.
func NewSlice(ins []Instr) *Slice { return &Slice{ins: ins} }

// Next returns the next instruction in the slice.
func (s *Slice) Next() (Instr, bool) {
	if s.pos >= len(s.ins) {
		return Instr{}, false
	}
	in := s.ins[s.pos]
	s.pos++
	return in, true
}

// Reset rewinds the slice to its beginning.
func (s *Slice) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the slice.
func (s *Slice) Len() int { return len(s.ins) }

// Loop wraps a finite instruction sequence into an infinite Source that
// replays it forever. It is useful for turning short captured traces into
// steady-state workloads.
type Loop struct {
	ins []Instr
	pos int
}

// NewLoop returns an infinite Source replaying ins. It panics if ins is empty.
func NewLoop(ins []Instr) *Loop {
	if len(ins) == 0 {
		panic("trace: NewLoop with empty instruction sequence")
	}
	return &Loop{ins: ins}
}

// Next returns the next instruction, wrapping around at the end.
func (l *Loop) Next() (Instr, bool) {
	in := l.ins[l.pos]
	l.pos++
	if l.pos == len(l.ins) {
		l.pos = 0
	}
	return in, true
}

// Limit wraps a Source and stops it after n instructions.
type Limit struct {
	src  Source
	left uint64
}

// NewLimit returns a Source that yields at most n instructions from src.
func NewLimit(src Source, n uint64) *Limit { return &Limit{src: src, left: n} }

// Next returns the next instruction unless the limit is exhausted.
func (l *Limit) Next() (Instr, bool) {
	if l.left == 0 {
		return Instr{}, false
	}
	l.left--
	return l.src.Next()
}

// Collect materialises up to n instructions from src into a fresh slice.
func Collect(src Source, n int) []Instr {
	return CollectInto(make([]Instr, 0, n), src, n)
}

// CollectInto materialises up to n instructions from src into dst's
// backing array, reusing its capacity: dst is truncated and refilled in
// place, so repeated refills with a large-enough buffer perform no
// allocations. It returns the refilled slice (which must replace dst, as
// with append).
func CollectInto(dst []Instr, src Source, n int) []Instr {
	dst = dst[:0]
	for len(dst) < n {
		in, ok := src.Next()
		if !ok {
			break
		}
		dst = append(dst, in)
	}
	return dst
}

// Window is a reusable decode window: a fixed-capacity instruction buffer
// that refills in place from a Source. It replaces the
// materialise-a-fresh-slice-per-refill pattern in streaming consumers.
type Window struct {
	buf []Instr
}

// NewWindow returns a Window holding up to n instructions.
func NewWindow(n int) *Window {
	return &Window{buf: make([]Instr, 0, n)}
}

// Refill replaces the window's contents with the next instructions from
// src, reusing the window's backing array. It returns the window's
// instructions: up to the window capacity, fewer if src ended first, and
// an empty slice once src is exhausted. The returned slice aliases the
// window and is valid until the next Refill.
func (w *Window) Refill(src Source) []Instr {
	w.buf = CollectInto(w.buf, src, cap(w.buf))
	return w.buf
}

// Instrs returns the window's current contents (aliasing the window).
func (w *Window) Instrs() []Instr { return w.buf }

// Cap returns the window's capacity in instructions.
func (w *Window) Cap() int { return cap(w.buf) }

// Validate checks structural sanity of an instruction: sizes, branch fields
// and class consistency. It returns a descriptive error for the first
// violation found, or nil.
func Validate(in Instr) error {
	if in.Size == 0 {
		return fmt.Errorf("trace: instruction at %#x has zero size", in.PC)
	}
	if in.Class.IsUnconditional() && !in.Taken {
		// Unconditional branches are represented with Taken=true by
		// convention so that TakenBranch is cheap.
		return fmt.Errorf("trace: unconditional %v at %#x not marked taken", in.Class, in.PC)
	}
	if in.TakenBranch() && in.Target == 0 {
		return fmt.Errorf("trace: taken %v at %#x has zero target", in.Class, in.PC)
	}
	if in.Class.IsMem() && in.MemAddr == 0 {
		return fmt.Errorf("trace: %v at %#x has zero memory address", in.Class, in.PC)
	}
	if !in.Class.IsBranch() && in.Taken {
		return fmt.Errorf("trace: non-branch at %#x marked taken", in.PC)
	}
	return nil
}

// Stats summarises a finite instruction stream; it is primarily a trace
// inspection aid for cmd/tracegen.
type Stats struct {
	Count        uint64
	Branches     uint64
	Taken        uint64
	Conditional  uint64
	Calls        uint64
	Returns      uint64
	Loads        uint64
	Stores       uint64
	MinPC, MaxPC uint64
	// UniqueBlocks is the number of distinct 64-byte blocks touched — the
	// static code footprint at cache-block granularity.
	UniqueBlocks int
}

// Footprint returns the code footprint in bytes (64B-block granularity).
func (s Stats) Footprint() uint64 { return uint64(s.UniqueBlocks) * 64 }

// BlockSet accumulates the distinct 64-byte code blocks of an instruction
// stream — the static footprint at cache-block granularity. Unlike an
// ad-hoc map, a BlockSet is reusable: Reset empties it while keeping the
// map's storage, so repeated measurements over similar footprints stop
// allocating once the first pass has grown the buckets.
type BlockSet struct {
	m map[uint64]struct{}
}

// Add records the block containing pc.
func (b *BlockSet) Add(pc uint64) {
	if b.m == nil {
		b.m = make(map[uint64]struct{})
	}
	b.m[pc>>6] = struct{}{}
}

// Len returns the number of distinct blocks recorded.
func (b *BlockSet) Len() int { return len(b.m) }

// Reset empties the set, retaining its storage for reuse.
func (b *BlockSet) Reset() { clear(b.m) }

// Measure consumes up to n instructions from src and summarises them.
func Measure(src Source, n uint64) Stats {
	var blocks BlockSet
	return MeasureInto(src, n, &blocks)
}

// MeasureInto is Measure reusing the caller's BlockSet for the
// unique-block accounting: blocks is reset and refilled, so repeated
// measurements reuse its storage instead of rebuilding a map per call.
func MeasureInto(src Source, n uint64, blocks *BlockSet) Stats {
	var st Stats
	blocks.Reset()
	st.MinPC = ^uint64(0)
	for st.Count < n {
		in, ok := src.Next()
		if !ok {
			break
		}
		st.Count++
		if in.PC < st.MinPC {
			st.MinPC = in.PC
		}
		if in.PC > st.MaxPC {
			st.MaxPC = in.PC
		}
		blocks.Add(in.PC)
		switch {
		case in.Class == ClassLoad:
			st.Loads++
		case in.Class == ClassStore:
			st.Stores++
		case in.Class.IsBranch():
			st.Branches++
			if in.TakenBranch() {
				st.Taken++
			}
			if in.Class.IsConditional() {
				st.Conditional++
			}
			if in.Class.IsCall() {
				st.Calls++
			}
			if in.Class == ClassReturn {
				st.Returns++
			}
		}
	}
	if st.Count == 0 {
		st.MinPC = 0
	}
	st.UniqueBlocks = blocks.Len()
	return st
}
