// Package bpu implements the branch prediction unit of the modelled core:
// a hashed-perceptron conditional direction predictor, a set-associative
// branch target buffer (BTB), and a return address stack (RAS). The
// configuration mirrors Table I of the UBS paper (4K-entry BTB, hashed
// perceptron).
//
// The simulator is trace driven, so the BPU is consulted for each branch on
// the committed path and trained immediately with the known outcome; a
// wrong direction, a wrong target, or a BTB miss on a taken branch counts
// as a misprediction that blocks fetch past the branch until it resolves.
package bpu

import "ubscache/internal/trace"

// Config parameterises the BPU.
type Config struct {
	// Perceptron tables.
	Tables       int // number of hashed weight tables
	TableEntries int // entries per table (power of two)
	HistoryBits  int // global history length
	Threshold    int // training threshold (typically 1.93*h + 14)

	// BTB.
	BTBEntries int // total entries
	BTBWays    int

	// RAS.
	RASEntries int
}

// DefaultConfig returns the Table I configuration.
func DefaultConfig() Config {
	return Config{
		Tables:       8,
		TableEntries: 1 << 12,
		HistoryBits:  64,
		Threshold:    138, // floor(1.93*history) + 14, the usual perceptron rule
		BTBEntries:   4096,
		BTBWays:      8,
		RASEntries:   64,
	}
}

// Stats accumulates prediction outcomes.
type Stats struct {
	Branches       uint64
	CondBranches   uint64
	DirectionWrong uint64 // conditional direction mispredictions
	TargetWrong    uint64 // taken branch with wrong predicted target
	BTBMisses      uint64 // BTB lookup misses on taken branches
	Mispredictions uint64 // execute-time fetch redirects (full flushes)
	DecodeResteers uint64 // decode-time redirects (BTB miss, direct target)
	RASMispredicts uint64
}

// MPKI returns mispredictions per kilo-instruction given a retired count.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(s.Mispredictions) / float64(instructions)
}

// BPU is the complete branch prediction unit.
type BPU struct {
	cfg     Config
	btbSets int
	st      State
	// idxScratch backs predictDirection's per-table index list; the
	// returned slice is only valid until the next prediction.
	idxScratch []int
}

// New constructs a BPU with cfg; zero-valued fields take defaults.
func New(cfg Config) *BPU {
	def := DefaultConfig()
	if cfg.Tables == 0 {
		cfg.Tables = def.Tables
	}
	if cfg.TableEntries == 0 {
		cfg.TableEntries = def.TableEntries
	}
	if cfg.HistoryBits == 0 {
		cfg.HistoryBits = def.HistoryBits
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = def.Threshold
	}
	if cfg.BTBEntries == 0 {
		cfg.BTBEntries = def.BTBEntries
	}
	if cfg.BTBWays == 0 {
		cfg.BTBWays = def.BTBWays
	}
	if cfg.RASEntries == 0 {
		cfg.RASEntries = def.RASEntries
	}
	b := &BPU{cfg: cfg}
	b.st.Weights = make([]int8, cfg.Tables*cfg.TableEntries)
	b.st.Bias = make([]int8, cfg.TableEntries)
	b.idxScratch = make([]int, cfg.Tables)
	b.btbSets = cfg.BTBEntries / cfg.BTBWays
	b.st.BTBTags = make([]uint64, b.btbSets*cfg.BTBWays)
	b.st.BTBTargets = make([]uint64, b.btbSets*cfg.BTBWays)
	b.st.BTBLRU = make([]uint32, b.btbSets*cfg.BTBWays)
	b.st.RAS = make([]uint64, cfg.RASEntries)
	return b
}

// Config returns the effective configuration.
func (b *BPU) Config() Config { return b.cfg }

// Stats returns the accumulated statistics.
func (b *BPU) Stats() Stats { return b.st.Stats }

// ResetStats clears the statistics (end of warmup) without touching the
// predictor, BTB, or RAS.
func (b *BPU) ResetStats() { b.st.Stats = Stats{} }

// mix is a 64-bit finaliser used for all table hashing.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// tableIndex hashes pc with the i-th geometric history segment.
func (b *BPU) tableIndex(i int, pc uint64) int {
	// Geometric history lengths: 2, 4, 8, ... capped at HistoryBits.
	hlen := 2 << uint(i)
	if hlen > b.cfg.HistoryBits {
		hlen = b.cfg.HistoryBits
	}
	var hmask uint64
	if hlen >= 64 {
		hmask = ^uint64(0)
	} else {
		hmask = (1 << uint(hlen)) - 1
	}
	h := mix((pc >> 2) ^ (b.st.History&hmask)*0x9e3779b97f4a7c15 ^ uint64(i)<<56)
	return int(h) & (b.cfg.TableEntries - 1)
}

// predictDirection computes the perceptron sum for pc. The returned idx
// slice holds each table's index into the flat Weights and aliases a
// scratch buffer that the next call overwrites.
func (b *BPU) predictDirection(pc uint64) (taken bool, sum int, idx []int) {
	idx = b.idxScratch
	sum = int(b.st.Bias[int(mix(pc>>2))&(b.cfg.TableEntries-1)])
	for i := 0; i < b.cfg.Tables; i++ {
		idx[i] = i*b.cfg.TableEntries + b.tableIndex(i, pc)
		sum += int(b.st.Weights[idx[i]])
	}
	return sum >= 0, sum, idx
}

func sat8(v int) int8 {
	if v > 127 {
		return 127
	}
	if v < -127 {
		return -127
	}
	return int8(v)
}

// train adjusts weights towards the actual outcome.
func (b *BPU) train(pc uint64, idx []int, taken bool) {
	dir := -1
	if taken {
		dir = 1
	}
	bi := int(mix(pc>>2)) & (b.cfg.TableEntries - 1)
	b.st.Bias[bi] = sat8(int(b.st.Bias[bi]) + dir)
	for _, ix := range idx {
		b.st.Weights[ix] = sat8(int(b.st.Weights[ix]) + dir)
	}
}

// btbSet returns the index of pc's BTB set's first way in the flat
// set-major BTB arrays.
func (b *BPU) btbSet(pc uint64) int {
	return (int(mix(pc>>2)) & (b.btbSets - 1)) * b.cfg.BTBWays
}

// btbLookup returns the stored target for pc, if present.
func (b *BPU) btbLookup(pc uint64) (target uint64, hit bool) {
	base := b.btbSet(pc)
	for i := base; i < base+b.cfg.BTBWays; i++ {
		if b.st.BTBTags[i] == pc {
			b.st.BTBClock++
			b.st.BTBLRU[i] = b.st.BTBClock
			return b.st.BTBTargets[i], true
		}
	}
	return 0, false
}

// btbInsert installs or updates pc→target.
func (b *BPU) btbInsert(pc, target uint64) {
	base := b.btbSet(pc)
	victim, oldest := base, ^uint32(0)
	for i := base; i < base+b.cfg.BTBWays; i++ {
		if b.st.BTBTags[i] == pc {
			victim = i
			break
		}
		if b.st.BTBTags[i] == 0 {
			victim, oldest = i, 0
			continue
		}
		if b.st.BTBLRU[i] < oldest {
			victim, oldest = i, b.st.BTBLRU[i]
		}
	}
	b.st.BTBClock++
	b.st.BTBTags[victim] = pc
	b.st.BTBTargets[victim] = target
	b.st.BTBLRU[victim] = b.st.BTBClock
}

// Result describes the BPU's prediction for one branch.
type Result struct {
	// PredTaken is the predicted direction.
	PredTaken bool
	// PredTarget is the predicted target (meaningful when PredTaken).
	PredTarget uint64
	// Mispredict reports an execute-time redirect: fetch must stall past
	// this branch until it resolves (wrong direction, wrong indirect
	// target, or RAS mismatch).
	Mispredict bool
	// Resteer reports a decode-time redirect: the BTB missed but the
	// (direct) target is recomputed at decode, costing only a short
	// front-end bubble.
	Resteer bool
}

// PredictAndTrain runs the full prediction pipeline for a committed-path
// branch instruction and immediately trains all structures with the actual
// outcome. Non-branch instructions are rejected by panic: callers filter.
func (b *BPU) PredictAndTrain(in *trace.Instr) Result {
	if !in.Class.IsBranch() {
		panic("bpu: PredictAndTrain on non-branch")
	}
	b.st.Stats.Branches++
	actualTaken := in.TakenBranch()

	var r Result
	switch in.Class {
	case trace.ClassCondBranch:
		b.st.Stats.CondBranches++
		taken, sum, idx := b.predictDirection(in.PC)
		r.PredTaken = taken
		if taken != in.Taken {
			b.st.Stats.DirectionWrong++
			r.Mispredict = true
		}
		if taken != in.Taken || abs(sum) <= b.cfg.Threshold {
			b.train(in.PC, idx, in.Taken)
		}
		// History records the actual outcome (trace-driven: the front end
		// is repaired at resolution anyway).
		b.st.History = b.st.History<<1 | boolBit(in.Taken)
		if r.PredTaken {
			tgt, hit := b.btbLookup(in.PC)
			r.PredTarget = tgt
			if actualTaken && !r.Mispredict {
				// Conditional branches are direct: a BTB miss (or stale
				// entry) is repaired at decode from the instruction bits.
				if !hit {
					b.st.Stats.BTBMisses++
					r.Resteer = true
				} else if tgt != in.Target {
					b.st.Stats.TargetWrong++
					r.Resteer = true
				}
			}
		}
	case trace.ClassReturn:
		r.PredTaken = true
		tgt, ok := b.rasPop()
		r.PredTarget = tgt
		if !ok || tgt != in.Target {
			b.st.Stats.RASMispredicts++
			r.Mispredict = true
		}
		b.st.History = b.st.History<<1 | 1
	default:
		// Unconditional jumps and calls: direction is known taken; the
		// target comes from the BTB. Direct branches repair BTB misses at
		// decode (short resteer); indirect ones must wait for execute.
		r.PredTaken = true
		tgt, hit := b.btbLookup(in.PC)
		r.PredTarget = tgt
		wrong := !hit || tgt != in.Target
		if !hit {
			b.st.Stats.BTBMisses++
		} else if tgt != in.Target {
			b.st.Stats.TargetWrong++
		}
		if wrong {
			if in.Class.IsIndirect() {
				r.Mispredict = true
			} else {
				r.Resteer = true
			}
		}
		if in.Class.IsCall() {
			b.rasPush(in.EndPC())
		}
		b.st.History = b.st.History<<1 | 1
	}

	// Train the BTB with the actual target of taken branches.
	if actualTaken && in.Class != trace.ClassReturn {
		b.btbInsert(in.PC, in.Target)
	}
	if r.Mispredict {
		b.st.Stats.Mispredictions++
	}
	if r.Resteer {
		b.st.Stats.DecodeResteers++
	}
	return r
}

func (b *BPU) rasPush(ret uint64) {
	b.st.RASTop = (b.st.RASTop + 1) % len(b.st.RAS)
	b.st.RAS[b.st.RASTop] = ret
}

func (b *BPU) rasPop() (uint64, bool) {
	v := b.st.RAS[b.st.RASTop]
	if v == 0 {
		return 0, false
	}
	b.st.RAS[b.st.RASTop] = 0
	b.st.RASTop = (b.st.RASTop - 1 + len(b.st.RAS)) % len(b.st.RAS)
	return v, true
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
