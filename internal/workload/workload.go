// Package workload synthesises deterministic server-like instruction
// streams. It substitutes for the proprietary Google server traces, the
// Qualcomm IPC-1 traces, and the CVP-1 traces used by the UBS paper (see
// DESIGN.md §3).
//
// A workload is a static Program — a set of functions made of basic blocks
// laid out in a virtual address space with hot and cold code physically
// interleaved at sub-cache-block granularity — plus a deterministic Walker
// that interprets the program's control-flow graph and emits the dynamic
// instruction stream. Both the program construction and the walk are pure
// functions of the workload seed.
//
// The generator exposes exactly the properties the paper's results depend
// on: code footprint (drives L1-I MPKI), hot/cold mixing density (drives
// cache-block storage efficiency), basic-block size distribution (drives
// spatial-locality variability), branch bias (drives prediction accuracy),
// and call depth (deep software stacks).
package workload

import (
	"fmt"
	"math"
)

// InstrBytes is the fixed instruction size of the modelled ISA (ARM-like,
// matching the IPC-1 traces used for the paper's performance results).
const InstrBytes = 4

// TermKind identifies how a basic block ends.
type TermKind uint8

const (
	// TermFallthrough: the block flows into Block.Next.
	TermFallthrough TermKind = iota
	// TermCond: conditional branch to TargetBlock, falling to Next otherwise.
	TermCond
	// TermJump: unconditional direct jump to TargetBlock.
	TermJump
	// TermCall: direct call to Callee, resuming at Block.Next.
	TermCall
	// TermIndirectCall: indirect call to one of Callees, resuming at Next.
	TermIndirectCall
	// TermReturn: return to the caller.
	TermReturn
)

var termNames = [...]string{"fallthrough", "cond", "jump", "call", "indirect-call", "return"}

// String returns the terminator kind name.
func (k TermKind) String() string {
	if int(k) < len(termNames) {
		return termNames[k]
	}
	return fmt.Sprintf("term(%d)", uint8(k))
}

// Terminator describes a basic block's final control transfer.
type Terminator struct {
	Kind TermKind
	// NCallees is the number of candidate function indices of a
	// TermIndirectCall, which start at CalleesAt in the program's callee
	// table (Program.Callees); 0 for every other kind.
	NCallees  uint8
	CalleesAt int32
	// TargetBlock is the intra-function block index for TermCond/TermJump.
	TargetBlock int
	// Callee is the program function index for TermCall.
	Callee int
	// TakenProb is the probability a TermCond branch is taken.
	TakenProb float64
}

// Block is one basic block: NInstr instructions, the last of which
// realises the terminator (unless the terminator is a fallthrough, in
// which case every instruction is a plain one).
//
// A Block holds no pointer: what varies in length (a variable-length
// block's instruction offsets, an indirect call's callees) lives in the
// Program's side tables, so a program's blocks cost the garbage
// collector nothing to scan. Read a block's extent through its Program.
type Block struct {
	Addr   uint64
	NInstr int
	Term   Terminator
	Cold   bool
	// Split marks a cold block relocated to the program's cold region.
	Split bool
	// Next is the intra-function block index executed after a fallthrough,
	// an untaken conditional, or a call return. -1 for return blocks.
	Next int
	// OffsAt is where the block's NInstr+1 instruction byte offsets (the
	// last one the block's byte length) start in the program's offsets
	// table, which only a variable-length ISA has.
	OffsAt int
}

// Func is one function of the synthetic program.
type Func struct {
	Blocks []Block
	Entry  int // block index of the entry block
	// Level is the static call-depth level; a function only calls functions
	// of Level+1, which statically bounds the dynamic call depth.
	Level int
	// DataBase is the base address of this function's heap data region.
	DataBase uint64
}

// Program is a complete static code image.
type Program struct {
	Funcs []Func
	// CodeBytes is the total laid-out code size, including cold regions.
	CodeBytes uint64
	cfg       Config
	// offs holds every block's instruction byte offsets for a
	// variable-length ISA and is nil for the fixed 4-byte ISA; callees
	// holds every indirect call's candidate callees.
	offs    []uint16
	callees []int
	// rng is the walker's generator as seeded, which every walker over
	// the program starts from a copy of.
	rng RNG
}

// Callees returns the candidate callees of a TermIndirectCall, or nil
// for any other terminator.
func (p *Program) Callees(t *Terminator) []int {
	if t.NCallees == 0 {
		return nil
	}
	at, end := int(t.CalleesAt), int(t.CalleesAt)+int(t.NCallees)
	return p.callees[at:end:end]
}

// SizeBytes returns b's byte length.
func (p *Program) SizeBytes(b *Block) int {
	if p.offs != nil {
		return int(p.offs[b.OffsAt+b.NInstr])
	}
	return b.NInstr * InstrBytes
}

// InstrAddr returns the address of b's i-th instruction.
func (p *Program) InstrAddr(b *Block, i int) uint64 {
	if p.offs != nil {
		return b.Addr + uint64(p.offs[b.OffsAt+i])
	}
	return b.Addr + uint64(i*InstrBytes)
}

// InstrSize returns the byte size of b's i-th instruction.
func (p *Program) InstrSize(b *Block, i int) int {
	if p.offs != nil {
		return int(p.offs[b.OffsAt+i+1] - p.offs[b.OffsAt+i])
	}
	return InstrBytes
}

// End returns the address one past b's last byte.
func (p *Program) End(b *Block) uint64 { return b.Addr + uint64(p.SizeBytes(b)) }

// Config parameterises program synthesis. All distributions are uniform over
// the inclusive [2]int ranges unless stated otherwise.
type Config struct {
	Name string
	Seed int64

	// Static shape.
	Functions       int    // number of functions
	HotBlocksPer    [2]int // hot basic blocks per function
	HotBlockInstrs  [2]int // instructions per hot block
	ColdBlockInstrs [2]int // instructions per cold block
	ColdFrac        float64
	// ColdSplit is the fraction of cold blocks relocated to a separate cold
	// code region (profile-guided layout quality; ~0 for unoptimised code,
	// higher for Google-style layouts).
	ColdSplit float64
	FuncAlign uint64 // function start alignment in bytes
	CodeBase  uint64

	// Control flow.
	ColdExecProb float64 // probability a cold detour executes
	CondProb     float64 // probability a hot block ends in an extra conditional
	CallProb     float64 // probability a hot block ends in a call
	IndirectFrac float64 // fraction of calls that are indirect
	MaxDepth     int     // static call-depth bound
	LoopProb     float64 // probability a function contains a loop
	LoopIters    [2]int  // mean loop trip counts (per-loop mean uniform in range)

	// Dynamics.
	WorkingSetFuncs int // entry functions active per phase
	PhaseLen        int // requests per phase before the working set drifts
	DriftFuncs      int // working-set shift per phase

	// Data side.
	LoadFrac      float64
	StoreFrac     float64
	DataFootprint uint64
	StackBase     uint64
	FrameBytes    uint64

	// ISA shape. VarLenISA emits x86-like variable-length instructions
	// with sizes drawn uniformly from InstrSizeRange (default [2,9]);
	// otherwise every instruction is 4 bytes.
	VarLenISA      bool
	InstrSizeRange [2]int
}

// Bounds that validate enforces beyond the shape rules. They keep every
// range draw inside an int (a 32-bit one too), every variable-length
// offset inside its uint16, every address inside 64 bits, the program's
// size sane for configs read from outside bytes, and the call stack
// inside the walker's preallocated frames.
const (
	maxCallDepth   = 64      // frames the walker preallocates
	maxHotBlocks   = 1 << 21 // Functions × HotBlocksPer[1]
	maxBlockInstrs = 1 << 16
	maxInstrBytes  = 15 // the longest x86 instruction
	maxLoopIters   = 1 << 20
	maxFrameBytes  = 1 << 20
	maxFuncAlign   = 1 << 12
	maxCodeBase    = 1 << 48
)

// validate checks a defaulted config. Configs arrive from outside bytes
// (workload specs), so anything Build or the Walker cannot honour is an
// error here, never a panic or a silently wrong stream later.
func (c *Config) validate() error {
	badRange := func(r [2]int, lo, hi int) bool { return r[0] < lo || r[1] < r[0] || r[1] > hi }
	switch {
	case c.Functions < 2:
		return fmt.Errorf("workload %s: need at least 2 functions", c.Name)
	case badRange(c.HotBlocksPer, 1, maxHotBlocks/c.Functions):
		return fmt.Errorf("workload %s: bad HotBlocksPer %v (at most %d hot blocks in all)", c.Name, c.HotBlocksPer, maxHotBlocks)
	case badRange(c.HotBlockInstrs, 1, maxBlockInstrs):
		return fmt.Errorf("workload %s: bad HotBlockInstrs %v", c.Name, c.HotBlockInstrs)
	case badRange(c.ColdBlockInstrs, 1, maxBlockInstrs):
		return fmt.Errorf("workload %s: bad ColdBlockInstrs %v", c.Name, c.ColdBlockInstrs)
	case c.InstrSizeRange != [2]int{} && badRange(c.InstrSizeRange, 1, maxInstrBytes):
		return fmt.Errorf("workload %s: bad InstrSizeRange %v", c.Name, c.InstrSizeRange)
	case c.VarLenISA && max(c.HotBlockInstrs[1], c.ColdBlockInstrs[1])*c.InstrSizeRange[1] > math.MaxUint16:
		return fmt.Errorf("workload %s: variable-length blocks of up to %d instructions of %d bytes overflow their 16-bit offsets",
			c.Name, max(c.HotBlockInstrs[1], c.ColdBlockInstrs[1]), c.InstrSizeRange[1])
	case badRange(c.LoopIters, 0, maxLoopIters):
		return fmt.Errorf("workload %s: bad LoopIters %v", c.Name, c.LoopIters)
	case c.MaxDepth < 1 || c.MaxDepth > min(c.Functions, maxCallDepth):
		return fmt.Errorf("workload %s: MaxDepth %d outside [1,%d] (every level needs a function)",
			c.Name, c.MaxDepth, min(c.Functions, maxCallDepth))
	case c.WorkingSetFuncs < 1 || c.WorkingSetFuncs > c.Functions:
		return fmt.Errorf("workload %s: bad WorkingSetFuncs %d", c.Name, c.WorkingSetFuncs)
	case c.DriftFuncs < 0 || c.DriftFuncs > c.Functions:
		return fmt.Errorf("workload %s: DriftFuncs %d outside [0,%d]", c.Name, c.DriftFuncs, c.Functions)
	case c.LoadFrac+c.StoreFrac > 0.9:
		return fmt.Errorf("workload %s: memory fractions too high", c.Name)
	case c.FrameBytes > maxFrameBytes:
		return fmt.Errorf("workload %s: FrameBytes %d above %d", c.Name, c.FrameBytes, maxFrameBytes)
	case c.StackBase <= uint64(c.MaxDepth)*c.FrameBytes:
		return fmt.Errorf("workload %s: StackBase %#x leaves no room for %d frames", c.Name, c.StackBase, c.MaxDepth)
	case c.FuncAlign > maxFuncAlign:
		return fmt.Errorf("workload %s: FuncAlign %d above %d", c.Name, c.FuncAlign, maxFuncAlign)
	case c.CodeBase > maxCodeBase:
		return fmt.Errorf("workload %s: CodeBase %#x above %#x", c.Name, c.CodeBase, uint64(maxCodeBase))
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"ColdFrac", c.ColdFrac}, {"ColdSplit", c.ColdSplit}, {"ColdExecProb", c.ColdExecProb},
		{"CondProb", c.CondProb}, {"CallProb", c.CallProb}, {"IndirectFrac", c.IndirectFrac},
		{"LoopProb", c.LoopProb}, {"LoadFrac", c.LoadFrac}, {"StoreFrac", c.StoreFrac},
	} {
		if !(pr.v >= 0 && pr.v <= 1) {
			return fmt.Errorf("workload %s: %s %v outside [0,1]", c.Name, pr.name, pr.v)
		}
	}
	return nil
}

func uniform(rng *RNG, r [2]int) int {
	if r[1] <= r[0] {
		return r[0]
	}
	return r[0] + rng.Intn(r[1]-r[0]+1)
}

// branchBias draws a per-static-branch taken probability. The mixture gives
// mostly strongly biased branches (predictable by a perceptron) with a tail
// of hard branches, approximating server-code prediction accuracy.
func branchBias(rng *RNG) float64 {
	switch x := rng.Float64(); {
	case x < 0.60:
		return 0.985
	case x < 0.82:
		return 0.015
	case x < 0.95:
		return 0.92
	default:
		return 0.68
	}
}

// Block arena chunk sizes, in blocks. Build hands out each function's
// blocks as sub-slices of a few large chunks instead of allocating every
// function's slice on its own: a server program has ~75k blocks, and one
// allocation per slice used to cost Build more than the synthesis itself.
//
// A chunk of smallChunk blocks (28 KB) is still a small object, which
// the Go allocator serves from per-size spans. Larger chunks come from
// the page heap, where short-lived programs fragment it: on perfbench's
// spec-loop, 8k-block chunks raised peak RSS from 27 to 30 MB in about
// half the runs. So a program whose blocks fit in maxSmallChunks of them
// takes small chunks, and only a larger one takes blockChunk blocks at a
// time, which keeps Build at a few dozen allocations.
const (
	blockChunk     = 8 << 10
	smallChunk     = 256
	maxSmallChunks = 64
)

// builder is Build's working state: the program, the generator, the
// block arena, and per-function scratch reused across functions.
type builder struct {
	p   *Program
	cfg *Config
	rng RNG // draws what rand.New(rand.NewSource(Seed)) would
	// The block arena chunk: the filled prefix is handed out, the spare
	// capacity is free. A chunk holds chunk blocks.
	chunk  int
	blocks []Block
	// indirect counts the indirect calls, to size the callee table.
	indirect int
	// hotIdx is the block index of each hot position; coldAfter the cold
	// block that follows it, or -1.
	hotIdx    []int
	coldAfter []int
}

// Build synthesises the static program for cfg. The result is a pure
// function of cfg (including Seed), and each call returns a fresh
// program. The program is immutable once built: functions' blocks share
// arena chunks, and walkers, checkpoints and callers only read it.
func Build(cfg Config) (*Program, error) {
	if cfg.FuncAlign == 0 {
		cfg.FuncAlign = 16
	}
	if cfg.CodeBase == 0 {
		cfg.CodeBase = 0x400000
	}
	if cfg.StackBase == 0 {
		cfg.StackBase = 0x7fff_0000_0000
	}
	if cfg.FrameBytes == 0 {
		cfg.FrameBytes = 256
	}
	if cfg.DataFootprint == 0 {
		cfg.DataFootprint = 1 << 20
	}
	if cfg.ColdBlockInstrs[0] == 0 {
		cfg.ColdBlockInstrs = [2]int{4, 16}
	}
	if cfg.VarLenISA && cfg.InstrSizeRange[0] == 0 {
		cfg.InstrSizeRange = [2]int{2, 9}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Program{cfg: cfg, Funcs: make([]Func, cfg.Functions)}
	bl := &builder{p: p, cfg: &p.cfg, chunk: blockChunk}
	// A function has at most 2×HotBlocksPer[1] blocks.
	if most := 2 * cfg.Functions * cfg.HotBlocksPer[1]; most <= maxSmallChunks*smallChunk {
		bl.chunk = min(smallChunk, most)
	}
	if cfg.VarLenISA {
		// Size the offsets table for its expected length, which counts a
		// cold block's chance after every hot block, the last ones too,
		// so appending almost never regrows it.
		mean := func(r [2]int) float64 { return float64(r[0]+r[1]) / 2 }
		perHot := mean(cfg.HotBlockInstrs) + 1 + cfg.ColdFrac*(mean(cfg.ColdBlockInstrs)+1)
		p.offs = make([]uint16, 0, int(float64(cfg.Functions)*mean(cfg.HotBlocksPer)*perHot))
	}
	bl.rng.Seed(cfg.Seed)
	p.rng.Seed(cfg.Seed ^ 0x5eed_0001)
	for fi := range p.Funcs {
		bl.buildFunc(&p.Funcs[fi], fi)
	}
	rng := &bl.rng

	// Callees are picked once all functions exist. An indirect call has
	// at most 4.
	p.callees = make([]int, 0, 4*bl.indirect)
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		for bi := range f.Blocks {
			term := &f.Blocks[bi].Term
			switch term.Kind {
			case TermCall:
				term.Callee = p.pickCallee(rng, fi)
			case TermIndirectCall:
				n := 2 + rng.Intn(3)
				term.NCallees, term.CalleesAt = uint8(n), int32(len(p.callees))
				for k := 0; k < n; k++ {
					p.callees = append(p.callees, p.pickCallee(rng, fi))
				}
			}
		}
	}

	// Layout: non-split blocks sequentially per function, then all split
	// cold blocks in a trailing cold region. The first 64 bytes at CodeBase
	// are reserved for the walker's synthetic dispatcher loop.
	addr := cfg.CodeBase + 64
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		if rem := addr % cfg.FuncAlign; rem != 0 {
			addr += cfg.FuncAlign - rem
		}
		for bi := range f.Blocks {
			if f.Blocks[bi].Split {
				continue
			}
			f.Blocks[bi].Addr = addr
			addr += uint64(p.SizeBytes(&f.Blocks[bi]))
		}
	}
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		for bi := range f.Blocks {
			if !f.Blocks[bi].Split {
				continue
			}
			if rem := addr % cfg.FuncAlign; rem != 0 {
				addr += cfg.FuncAlign - rem
			}
			f.Blocks[bi].Addr = addr
			addr += uint64(p.SizeBytes(&f.Blocks[bi]))
		}
	}
	p.CodeBytes = addr - cfg.CodeBase

	// Per-function data bases.
	dataBase := uint64(0x1000_0000)
	for fi := range p.Funcs {
		p.Funcs[fi].DataBase = dataBase + (uint64(rng.Int63())%cfg.DataFootprint)&^7
	}
	return p, nil
}

// buildFunc synthesises function fi's blocks and intra-function edges
// into f. The blocks are cut from the block arena: a function has at
// most 2×nHot of them (a cold block after each hot one), so that much is
// reserved, filled by append, and only the filled part is taken.
func (bl *builder) buildFunc(f *Func, fi int) {
	cfg, rng := bl.cfg, &bl.rng
	f.Level = fi % cfg.MaxDepth
	nHot := uniform(rng, cfg.HotBlocksPer)
	hasLoop := rng.Float64() < cfg.LoopProb && nHot >= 3
	loopHead, loopTail := -1, -1
	if hasLoop {
		loopHead = 1 + rng.Intn(nHot-2)
		loopTail = loopHead + 1 + rng.Intn(nHot-loopHead-1)
	}

	if cap(bl.blocks)-len(bl.blocks) < 2*nHot {
		bl.blocks = make([]Block, 0, max(bl.chunk, 2*nHot))
	}
	blocks := bl.blocks[len(bl.blocks):len(bl.blocks)]

	// Create hot blocks, interleaving cold blocks; record hot indices.
	hotIdx, coldAfter := bl.hotIdx[:0], bl.coldAfter[:0]
	for h := 0; h < nHot; h++ {
		b := Block{NInstr: uniform(rng, cfg.HotBlockInstrs)}
		bl.sizeInstrs(&b)
		blocks = append(blocks, b)
		hotIdx = append(hotIdx, len(blocks)-1)
		coldAfter = append(coldAfter, -1)
		last := h == nHot-1
		if !last && h != loopTail && rng.Float64() < cfg.ColdFrac {
			cb := Block{
				NInstr: uniform(rng, cfg.ColdBlockInstrs),
				Cold:   true,
				Split:  rng.Float64() < cfg.ColdSplit,
			}
			bl.sizeInstrs(&cb)
			blocks = append(blocks, cb)
			coldAfter[h] = len(blocks) - 1
		}
	}
	bl.blocks = bl.blocks[:len(bl.blocks)+len(blocks)]
	f.Blocks = blocks[:len(blocks):len(blocks)]
	bl.hotIdx, bl.coldAfter = hotIdx, coldAfter
	f.Entry = hotIdx[0]

	// Terminators and edges.
	for h, bi := range hotIdx {
		b := &f.Blocks[bi]
		if h == nHot-1 {
			b.Term = Terminator{Kind: TermReturn}
			b.Next = -1
			continue
		}
		nextHot := hotIdx[h+1]
		if ci := coldAfter[h]; ci >= 0 {
			cold := &f.Blocks[ci]
			if cold.Split {
				// Rarely-taken branch out to the relocated cold block,
				// which jumps back to the hot path.
				b.Term = Terminator{Kind: TermCond, TargetBlock: ci,
					TakenProb: cfg.ColdExecProb}
				b.Next = nextHot
				cold.Term = Terminator{Kind: TermJump, TargetBlock: nextHot}
				cold.Next = nextHot
			} else {
				// Usually-taken skip branch over the inline cold block;
				// the rare untaken path falls into the cold code.
				b.Term = Terminator{Kind: TermCond, TargetBlock: nextHot,
					TakenProb: 1 - cfg.ColdExecProb}
				b.Next = ci
				cold.Term = Terminator{Kind: TermFallthrough}
				cold.Next = nextHot
			}
			continue
		}
		b.Next = nextHot
		switch {
		case h == loopTail:
			mean := float64(uniform(rng, cfg.LoopIters))
			if mean < 1 {
				mean = 1
			}
			b.Term = Terminator{Kind: TermCond, TargetBlock: hotIdx[loopHead],
				TakenProb: mean / (mean + 1)}
		case f.Level < cfg.MaxDepth-1 && rng.Float64() < cfg.CallProb:
			b.Term = Terminator{Kind: TermCall}
			if rng.Float64() < cfg.IndirectFrac {
				b.Term.Kind = TermIndirectCall
				bl.indirect++
			}
		case rng.Float64() < cfg.CondProb:
			// Forward conditional skipping 1..3 hot blocks (if/else shape);
			// both paths reconverge.
			skip := h + 1 + rng.Intn(3)
			if skip >= len(hotIdx) {
				skip = len(hotIdx) - 1
			}
			b.Term = Terminator{Kind: TermCond, TargetBlock: hotIdx[skip],
				TakenProb: branchBias(rng)}
		default:
			b.Term = Terminator{Kind: TermFallthrough}
		}
	}
}

// pickCallee selects a callee for caller fi: a function at level+1, biased
// towards nearby indices (call-tree clustering / code locality).
func (p *Program) pickCallee(rng *RNG, fi int) int {
	level := p.Funcs[fi].Level + 1
	n := len(p.Funcs)
	hops := 1
	for rng.Float64() < 0.6 && hops < 32 {
		hops++
	}
	cand, last := fi, -1
	for seen := 0; seen <= 2*n+64; seen++ {
		cand = (cand + 1) % n
		if p.Funcs[cand].Level == level {
			last = cand
			hops--
			if hops == 0 {
				return cand
			}
		}
	}
	// Only a program with few functions per level gets here. The next
	// function is one level down unless fi is the last; then stay on a
	// function the scan met (validate keeps MaxDepth <= Functions, so
	// there is one), which keeps the static depth bound.
	if next := (fi + 1) % n; p.Funcs[next].Level == level {
		return next
	}
	return last
}

// Config returns the configuration the program was built from.
func (p *Program) Config() Config { return p.cfg }

// BlockAt returns the function and block containing addr, or ok=false.
// It is O(n) and intended for tests and debugging only.
func (p *Program) BlockAt(addr uint64) (fn, blk int, ok bool) {
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			b := &p.Funcs[fi].Blocks[bi]
			if addr >= b.Addr && addr < p.End(b) {
				return fi, bi, true
			}
		}
	}
	return 0, 0, false
}

// HotBytes returns the total bytes of hot (non-cold) blocks — the warm code
// footprint a perfect layout would need.
func (p *Program) HotBytes() uint64 {
	var n uint64
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			if !p.Funcs[fi].Blocks[bi].Cold {
				n += uint64(p.SizeBytes(&p.Funcs[fi].Blocks[bi]))
			}
		}
	}
	return n
}

// sizeInstrs appends b's per-instruction byte offsets to the program's
// offsets table for variable-length ISAs; fixed-size ISAs have none.
func (bl *builder) sizeInstrs(b *Block) {
	if !bl.cfg.VarLenISA {
		return
	}
	p := bl.p
	b.OffsAt = len(p.offs)
	off := 0
	for i := 0; i < b.NInstr; i++ {
		p.offs = append(p.offs, uint16(off))
		off += uniform(&bl.rng, bl.cfg.InstrSizeRange)
	}
	p.offs = append(p.offs, uint16(off))
}
