// Package cache implements a generic set-associative cache with pluggable
// replacement policies and per-block accessed-bytes accounting.
//
// It backs the conventional L1-I, the L1-D, the unified L2/L3 levels, and
// the baseline instruction-cache designs (small-block, Line Distillation,
// GHRP/ACIC). The accessed-bytes bitmask per block is the instrumentation
// that produces the paper's Figure 1 (bytes used before eviction) and
// Figure 2 / Figure 7 (storage efficiency) data.
package cache

import (
	"fmt"
	"math/bits"
)

// AccessContext carries the metadata replacement policies may use.
type AccessContext struct {
	// PC is the program counter of the access (the fetch address for
	// instruction caches); GHRP hashes it with global history.
	PC uint64
	// Cycle is the current simulation cycle.
	Cycle uint64
	// Prefetch marks fills and accesses issued by a prefetcher.
	Prefetch bool
}

// Block is one cache block's state. Policy scratch fields are exported so
// policies in this package and tests can inspect them.
type Block struct {
	Valid      bool
	Dirty      bool
	Prefetched bool
	// Reused reports whether the block was hit at least once after fill.
	Reused bool
	// Tag is the full block address (addr >> blockShift); storing the full
	// address keeps invariants simple and costs nothing in a simulator.
	Tag uint64
	// Accessed is a bitmask of accessed units (Config.Unit bytes each).
	Accessed uint64
	// InsertCycle is the fill time.
	InsertCycle uint64
	// LastAccess is the most recent hit or fill time.
	LastAccess uint64

	// Policy scratch.
	LRU       uint64
	Signature uint32
	DeadPred  bool
}

// AccessedUnits returns the number of set bits in the Accessed mask.
func (b *Block) AccessedUnits() int {
	return bits.OnesCount64(b.Accessed)
}

// Config describes a cache array.
type Config struct {
	Name      string
	Sets      int
	Ways      int
	BlockSize int // bytes; must divide evenly into units
	// Unit is the accessed-accounting granularity in bytes (default 4, the
	// instruction size; use 1 for byte-granular accounting). BlockSize/Unit
	// must be <= 64.
	Unit int
	// NewPolicy constructs the replacement policy; nil selects LRU.
	NewPolicy func(sets, ways int) Policy
	// OnEvict, if set, observes every eviction of a valid block (including
	// invalidations) — the hook behind the Figure 1 histograms.
	OnEvict func(set int, b *Block)
}

// SizeBytes returns the data capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.BlockSize }

func (c *Config) validate() error {
	switch {
	case c.Sets < 1 || c.Ways < 1:
		return fmt.Errorf("cache %s: bad geometry %dx%d", c.Name, c.Sets, c.Ways)
	case c.BlockSize < 1 || c.BlockSize&(c.BlockSize-1) != 0:
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockSize)
	case c.Unit < 1 || c.BlockSize%c.Unit != 0:
		return fmt.Errorf("cache %s: unit %d does not divide block size %d", c.Name, c.Unit, c.BlockSize)
	case c.BlockSize/c.Unit > 64:
		return fmt.Errorf("cache %s: %d units exceed the 64-bit accounting mask", c.Name, c.BlockSize/c.Unit)
	}
	return nil
}

// Policy is a replacement policy. The cache calls OnFill/OnHit/OnEvict as
// blocks move, and Victim to choose a way for an incoming block; Victim may
// not return an invalid way index.
type Policy interface {
	Name() string
	OnFill(set, way int, b *Block, ctx AccessContext)
	OnHit(set, way int, b *Block, ctx AccessContext)
	OnEvict(set, way int, b *Block)
	Victim(set int, blocks []Block, ctx AccessContext) int
}

// Stats counts cache events.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	Fills          uint64
	PrefetchFills  uint64
	PrefetchHits   uint64 // demand hits on prefetched, not-yet-used blocks
	Evictions      uint64
	EvictedUnused  uint64 // evicted valid blocks never accessed at all
	Invalidations  uint64
	WritebackDirty uint64
}

// MPKI returns demand misses per kilo-instruction.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return 1000 * float64(s.Misses) / float64(instructions)
}

// HitRate returns the demand hit ratio.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative array. It models content and replacement, not
// timing; timing lives in package mem.
type Cache struct {
	cfg        Config
	blockShift uint
	unitShift  uint
	// setMask indexes sets without a hardware divide when Sets is a power
	// of two (every Table I geometry is); setsPow2 selects the fast path.
	setMask  uint64
	setsPow2 bool
	sets     [][]Block
	policy   Policy
	stats    Stats
}

// New constructs a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if cfg.Unit == 0 {
		cfg.Unit = 4
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	for 1<<c.blockShift < cfg.BlockSize {
		c.blockShift++
	}
	for 1<<c.unitShift < cfg.Unit {
		c.unitShift++
	}
	if cfg.Sets&(cfg.Sets-1) == 0 {
		c.setsPow2 = true
		c.setMask = uint64(cfg.Sets - 1)
	}
	c.sets = make([][]Block, cfg.Sets)
	blocks := make([]Block, cfg.Sets*cfg.Ways)
	for s := range c.sets {
		c.sets[s], blocks = blocks[:cfg.Ways], blocks[cfg.Ways:]
	}
	if cfg.NewPolicy != nil {
		c.policy = cfg.NewPolicy(cfg.Sets, cfg.Ways)
	} else {
		c.policy = NewLRU(cfg.Sets, cfg.Ways)
	}
	return c, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the effective configuration.
func (c *Cache) Config() Config { return c.cfg }

// BlockSize returns the block size in bytes without copying the whole
// configuration (hot paths ask for it per access).
func (c *Cache) BlockSize() int { return c.cfg.BlockSize }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Policy exposes the replacement policy (for tests and ACIC coupling).
func (c *Cache) Policy() Policy { return c.policy }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockSize) - 1)
}

// SetIndex maps an address to its set.
func (c *Cache) SetIndex(addr uint64) int {
	if c.setsPow2 {
		return int((addr >> c.blockShift) & c.setMask)
	}
	return int((addr >> c.blockShift) % uint64(c.cfg.Sets))
}

// Probe looks addr up without changing any state.
func (c *Cache) Probe(addr uint64) (set, way int, hit bool) {
	tag := addr >> c.blockShift
	set = c.SetIndex(addr)
	for w := range c.sets[set] {
		if c.sets[set][w].Valid && c.sets[set][w].Tag == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

// Access performs a demand access of size bytes starting at addr; the range
// must lie within one block. On a hit the accessed units are recorded and
// the policy notified. It returns whether the access hit.
func (c *Cache) Access(addr uint64, size int, ctx AccessContext) bool {
	set, way, hit := c.Probe(addr)
	return c.AccessAt(set, way, hit, addr, size, ctx)
}

// AccessAt commits the demand-access bookkeeping for a Probe result the
// caller already holds, skipping the second tag scan. It is the commit
// half of probe-then-commit walks (Hierarchy.FetchBlock) and produces
// exactly the counters and policy updates Access would.
func (c *Cache) AccessAt(set, way int, hit bool, addr uint64, size int, ctx AccessContext) bool {
	c.checkRange(addr, size)
	c.stats.Accesses++
	if !hit {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	b := &c.sets[set][way]
	if b.Prefetched && !b.Reused {
		c.stats.PrefetchHits++
	}
	b.Reused = true
	b.LastAccess = ctx.Cycle
	c.markAccessed(b, addr, size)
	c.policy.OnHit(set, way, b, ctx)
	return true
}

// MarkAccessed records units [addr, addr+size) as accessed on a resident
// block without counting an access; it is a no-op if the block is absent.
// The instruction frontends use it to account multi-instruction fetches.
func (c *Cache) MarkAccessed(addr uint64, size int) {
	c.checkRange(addr, size)
	set, way, hit := c.Probe(addr)
	if !hit {
		return
	}
	c.markAccessed(&c.sets[set][way], addr, size)
}

func (c *Cache) markAccessed(b *Block, addr uint64, size int) {
	first := (addr & (uint64(c.cfg.BlockSize) - 1)) >> c.unitShift
	last := ((addr + uint64(size) - 1) & (uint64(c.cfg.BlockSize) - 1)) >> c.unitShift
	// Set bits [first, last] in one operation; n is at most 64 (the
	// validated units-per-block ceiling), and a 64-wide range means the
	// whole mask.
	n := last - first + 1
	if n >= 64 {
		b.Accessed = ^uint64(0)
		return
	}
	b.Accessed |= (uint64(1)<<n - 1) << first
}

func (c *Cache) checkRange(addr uint64, size int) {
	if size < 1 || c.BlockAddr(addr) != c.BlockAddr(addr+uint64(size)-1) {
		panic(fmt.Sprintf("cache %s: access [%#x,+%d) spans blocks", c.cfg.Name, addr, size))
	}
}

// Fill installs the block containing addr, evicting a victim if necessary.
// It returns the victim's prior state (Valid=false if the way was free).
// Filling an already-resident block refreshes its policy state only.
func (c *Cache) Fill(addr uint64, ctx AccessContext) (victim Block) {
	tag := addr >> c.blockShift
	set, way, hit := c.Probe(addr)
	if hit {
		b := &c.sets[set][way]
		c.policy.OnHit(set, way, b, ctx)
		return Block{}
	}
	way = -1
	for w := range c.sets[set] {
		if !c.sets[set][w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.Victim(set, c.sets[set], ctx)
		if way < 0 || way >= c.cfg.Ways {
			panic(fmt.Sprintf("cache %s: policy %s returned bad victim %d",
				c.cfg.Name, c.policy.Name(), way))
		}
		victim = c.sets[set][way]
		c.evict(set, way)
	}
	b := &c.sets[set][way]
	*b = Block{
		Valid:       true,
		Tag:         tag,
		Prefetched:  ctx.Prefetch,
		InsertCycle: ctx.Cycle,
		LastAccess:  ctx.Cycle,
	}
	c.stats.Fills++
	if ctx.Prefetch {
		c.stats.PrefetchFills++
	}
	c.policy.OnFill(set, way, b, ctx)
	return victim
}

// evict removes the block at (set, way), running hooks and stats.
func (c *Cache) evict(set, way int) {
	b := &c.sets[set][way]
	if !b.Valid {
		return
	}
	c.stats.Evictions++
	if b.Accessed == 0 {
		c.stats.EvictedUnused++
	}
	if b.Dirty {
		c.stats.WritebackDirty++
	}
	c.policy.OnEvict(set, way, b)
	if c.cfg.OnEvict != nil {
		c.cfg.OnEvict(set, b)
	}
	b.Valid = false
}

// Invalidate removes the block containing addr if present, returning its
// prior state.
func (c *Cache) Invalidate(addr uint64) (b Block, ok bool) {
	set, way, hit := c.Probe(addr)
	if !hit {
		return Block{}, false
	}
	b = c.sets[set][way]
	c.stats.Invalidations++
	c.evict(set, way)
	return b, true
}

// SetDirty marks the block containing addr dirty (store hits).
func (c *Cache) SetDirty(addr uint64) {
	if set, way, hit := c.Probe(addr); hit {
		c.sets[set][way].Dirty = true
	}
}

// ForEach visits every valid block; the visitor must not retain the pointer.
func (c *Cache) ForEach(f func(set, way int, b *Block)) {
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].Valid {
				f(s, w, &c.sets[s][w])
			}
		}
	}
}

// ResidentBlocks returns the number of valid blocks.
func (c *Cache) ResidentBlocks() int {
	n := 0
	c.ForEach(func(int, int, *Block) { n++ })
	return n
}

// Efficiency returns the fraction of resident bytes accessed at least once
// — the paper's storage-efficiency metric — and ok=false when empty.
func (c *Cache) Efficiency() (float64, bool) {
	var used, total int
	c.ForEach(func(_, _ int, b *Block) {
		used += b.AccessedUnits()
		total += c.cfg.BlockSize / c.cfg.Unit
	})
	if total == 0 {
		return 0, false
	}
	return float64(used) / float64(total), true
}

// UnitsPerBlock returns BlockSize/Unit.
func (c *Cache) UnitsPerBlock() int { return c.cfg.BlockSize / c.cfg.Unit }
