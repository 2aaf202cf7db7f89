package icache

import (
	"fmt"

	"ubscache/internal/cache"
	"ubscache/internal/mem"
)

// ConventionalConfig sizes a fixed-block L1-I. Table I baseline: 32KB,
// 8-way, 64 sets, 64B blocks, 4-cycle latency, 8 MSHRs, LRU.
type ConventionalConfig struct {
	Name      string
	Sets      int
	Ways      int
	BlockSize int
	Lat       uint64
	MSHRs     int
	// NewPolicy selects replacement (nil = LRU; cache.NewGHRP for GHRP).
	NewPolicy func(sets, ways int) cache.Policy
	// ACIC enables admission-controlled insertion (Figure 13 baseline).
	ACIC bool
	// Unit is the accessed-bytes accounting granularity (default 4).
	Unit int
	// OnEvict observes evictions (Figure 1 instrumentation).
	OnEvict func(set int, b *cache.Block)
}

// Baseline32K returns the Table I baseline configuration.
func Baseline32K() ConventionalConfig {
	return ConventionalConfig{
		Name: "conv-32KB", Sets: 64, Ways: 8, BlockSize: 64,
		Lat: 4, MSHRs: 8,
	}
}

// Conv64K returns the 64KB comparison configuration (sets doubled,
// matching ChampSim's convention of scaling sets).
func Conv64K() ConventionalConfig {
	c := Baseline32K()
	c.Name = "conv-64KB"
	c.Sets = 128
	return c
}

// ConvSized returns a conventional configuration of the given total data
// capacity in bytes (8 ways, 64B blocks).
func ConvSized(bytes int) ConventionalConfig {
	c := Baseline32K()
	c.Name = fmt.Sprintf("conv-%dKB", bytes>>10)
	c.Sets = bytes / (c.Ways * c.BlockSize)
	return c
}

// Conventional is the fixed-block-size instruction cache frontend. The
// embedded Engine supplies the miss path and the Stats/Latency/
// MSHRInFlight surface.
type Conventional struct {
	*Engine
	cfg ConventionalConfig
	c   *cache.Cache

	// acic is the admission filter, nil unless the design enables it.
	acic *ACICState
}

var _ Frontend = (*Conventional)(nil)
var _ MSHROccupant = (*Conventional)(nil)

// NewConventional builds the frontend over hierarchy h.
func NewConventional(cfg ConventionalConfig, h *mem.Hierarchy) (*Conventional, error) {
	if cfg.Sets == 0 {
		cfg = Baseline32K()
	}
	if cfg.Lat == 0 {
		cfg.Lat = 4
	}
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 8
	}
	cv := &Conventional{Engine: NewEngine(cfg.MSHRs, cfg.Lat, h), cfg: cfg}
	onEvict := cfg.OnEvict
	if cfg.ACIC {
		cv.acic = newACIC()
		// Evicting a never-reused admitted block trains towards bypass.
		user := onEvict
		onEvict = func(set int, b *cache.Block) {
			if !b.Reused {
				cv.acic.trainBypass(b.Tag << 6)
			}
			if user != nil {
				user(set, b)
			}
		}
	}
	c, err := cache.New(cache.Config{
		Name: cfg.Name, Sets: cfg.Sets, Ways: cfg.Ways, BlockSize: cfg.BlockSize,
		Unit: cfg.Unit, NewPolicy: cfg.NewPolicy, OnEvict: onEvict,
	})
	if err != nil {
		return nil, err
	}
	cv.c = c
	return cv, nil
}

// Name identifies the design.
func (cv *Conventional) Name() string { return cv.cfg.Name }

// Cache exposes the underlying array (instrumentation, tests).
func (cv *Conventional) Cache() *cache.Cache { return cv.c }

// Efficiency reports the storage-efficiency metric.
func (cv *Conventional) Efficiency() (float64, bool) { return cv.c.Efficiency() }

// Fetch implements Frontend.
func (cv *Conventional) Fetch(addr uint64, size int, now uint64) Result {
	ctx := cache.AccessContext{PC: addr, Cycle: now}
	block := cv.c.BlockAddr(addr)
	set, way, hit := cv.c.Probe(addr)

	// A block still in flight is not usable even though the early-fill
	// model has already installed it.
	if r, merged := cv.Begin(block, now); merged {
		if hit {
			cv.c.MarkAccessedAt(set, way, addr, size)
		}
		return r
	}
	if cv.c.AccessAt(set, way, hit, addr, size, ctx) {
		return cv.Hit()
	}
	// Check the ACIC bypass buffer before going to L2.
	if cv.acic != nil && cv.acic.bypassHit(block) {
		return cv.Hit()
	}
	// Demand miss.
	r := cv.Miss(block, FullMiss, now, ctx)
	if r.Issued && cv.admit(block) {
		way, _ = cv.c.FillAt(set, block, ctx)
		cv.c.MarkAccessedAt(set, way, addr, size)
	}
	return r
}

// admit applies ACIC admission control to a block about to be filled; a
// bypassed block is parked in the bypass buffer instead.
func (cv *Conventional) admit(block uint64) bool {
	if cv.acic != nil && !cv.acic.admit(block) {
		cv.acic.insertBypass(block)
		return false
	}
	return true
}

// Prefetch implements Frontend: prefetches install directly into the L1-I
// (FDIP-style next-line-of-fetch prefetching into L1).
func (cv *Conventional) Prefetch(addr uint64, size int, now uint64) {
	block := cv.c.BlockAddr(addr)
	set, _, hit := cv.c.Probe(block)
	if hit {
		return
	}
	ctx := cache.AccessContext{PC: addr, Cycle: now, Prefetch: true}
	if cv.Engine.Prefetch(block, now, ctx) && cv.admit(block) {
		cv.c.FillAt(set, block, ctx)
	}
}

// acic implements the admission predictor of ACIC (Wang et al., HPCA'23)
// at the level of detail the simulator models: a table of saturating
// counters keyed by block address decides whether a missing block is
// admitted to the L1-I or parked in a small bypass buffer; re-reference of
// a bypassed block trains towards admission, eviction of a never-reused
// admitted block trains towards bypass (the latter is observed through the
// replacement policy's Reused bit at eviction, sampled lazily here via the
// bypass buffer reuse signal).
//
// Its state (ACICState) is the 2-bit admission counters, the bypass FIFO
// and the FIFO's next overwrite position.

const (
	acicTableBits = 12
	acicBypassCap = 16
	acicInitial   = 2 // start weakly admitting
)

func newACIC() *ACICState {
	a := &ACICState{
		Table:  make([]uint8, 1<<acicTableBits),
		Bypass: make([]uint64, 0, acicBypassCap),
	}
	for i := range a.Table {
		a.Table[i] = acicInitial
	}
	return a
}

// index hashes the 2KB code region containing the block: admission
// behaviour generalises across the blocks of a region, so a region whose
// blocks keep dying unused gets bypassed even for never-seen blocks.
func (a *ACICState) index(block uint64) int {
	h := (block >> 11) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return int(h) & (1<<acicTableBits - 1)
}

// admit predicts whether the block deserves L1-I residency.
func (a *ACICState) admit(block uint64) bool { return a.Table[a.index(block)] >= 2 }

// insertBypass parks a non-admitted block in the FIFO bypass buffer.
func (a *ACICState) insertBypass(block uint64) {
	if len(a.Bypass) < acicBypassCap {
		a.Bypass = append(a.Bypass, block)
		return
	}
	a.Bypass[a.Pos] = block
	a.Pos = (a.Pos + 1) % acicBypassCap
}

// bypassHit services a fetch from the bypass buffer and trains admission:
// a bypassed block that sees reuse should have been admitted.
func (a *ACICState) bypassHit(block uint64) bool {
	for i, b := range a.Bypass {
		if b == block {
			if a.Table[a.index(block)] < 3 {
				a.Table[a.index(block)]++
			}
			// Remove: it will be admitted on the refetch that follows its
			// next miss, or stays bypassed — either way the slot frees.
			a.Bypass[i] = a.Bypass[len(a.Bypass)-1]
			a.Bypass = a.Bypass[:len(a.Bypass)-1]
			if a.Pos >= len(a.Bypass) && a.Pos > 0 {
				a.Pos = 0
			}
			return true
		}
	}
	return false
}

// trainBypass is called when an admitted block dies without reuse.
func (a *ACICState) trainBypass(block uint64) {
	if i := a.index(block); a.Table[i] > 0 {
		a.Table[i]--
	}
}
