package icache

import (
	"ubscache/internal/cache"
	"ubscache/internal/mem"
)

// Distill adapts Line Distillation (Qureshi, Suleman, Patt, HPCA 2007) to
// the instruction cache, the Figure 13 baseline. The cache is split into a
// Line-Organised Cache (LOC) holding whole 64B blocks and a Word-Organised
// Cache (WOC) holding individual 8B words. When the LOC evicts a block
// that exhibited poor spatial locality, only its accessed words are moved
// into the WOC; future fetches can hit in either half.
type Distill struct {
	*Engine
	cfg DistillConfig
	loc *cache.Cache
	woc WOCState

	// WOCHits counts fetches served from the word-organised half.
	WOCHits uint64
}

var _ Frontend = (*Distill)(nil)
var _ MSHROccupant = (*Distill)(nil)

// DistillConfig sizes the two halves. The default splits a 32KB budget:
// 16KB LOC (64 sets × 4 ways × 64B) + 16KB WOC (64 sets × 32 words × 8B).
type DistillConfig struct {
	Name     string
	Sets     int
	LOCWays  int
	WOCWords int // 8B word entries per set
	Lat      uint64
	MSHRs    int
	// DistillThreshold: a block is distilled (words moved to WOC) when at
	// most this fraction of its units was accessed; otherwise it is
	// dropped whole. The original uses half the line.
	DistillThreshold float64
}

// DefaultDistill returns the 32KB-budget configuration.
func DefaultDistill() DistillConfig {
	return DistillConfig{
		Name: "line-distill", Sets: 64, LOCWays: 4, WOCWords: 32,
		Lat: 4, MSHRs: 8, DistillThreshold: 0.5,
	}
}

// wocSet returns the WOC set holding addr's words: a window of the
// set-major Entries slice.
func (d *Distill) wocSet(addr uint64) []WOCEntry {
	s := int((addr >> 6) % uint64(d.cfg.Sets))
	return d.woc.Entries[s*d.cfg.WOCWords : (s+1)*d.cfg.WOCWords]
}

// wocLookup reports whether the 8B word containing addr is resident.
func (d *Distill) wocLookup(addr uint64, touch bool) bool {
	word := addr &^ 7
	set := d.wocSet(addr)
	for i := range set {
		if set[i].Valid && set[i].Addr == word {
			if touch {
				d.woc.Clock++
				set[i].LRU = d.woc.Clock
				set[i].Used = true
			}
			return true
		}
	}
	return false
}

// wocInsert installs a word, evicting LRU.
func (d *Distill) wocInsert(addr uint64) {
	word := addr &^ 7
	set := d.wocSet(addr)
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		if set[i].Valid && set[i].Addr == word {
			return
		}
		if !set[i].Valid {
			victim, oldest = i, 0
			continue
		}
		if set[i].LRU < oldest {
			victim, oldest = i, set[i].LRU
		}
	}
	d.woc.Clock++
	set[victim] = WOCEntry{Valid: true, Addr: word, LRU: d.woc.Clock}
}

// wocInvalidateBlock drops all words of a 64B block.
func (d *Distill) wocInvalidateBlock(block uint64) {
	set := d.wocSet(block)
	for i := range set {
		if set[i].Valid && set[i].Addr&^63 == block {
			set[i] = WOCEntry{}
		}
	}
}

// NewDistill builds the frontend over hierarchy h.
func NewDistill(cfg DistillConfig, h *mem.Hierarchy) (*Distill, error) {
	if cfg.Sets == 0 {
		cfg = DefaultDistill()
	}
	d := &Distill{Engine: NewEngine(cfg.MSHRs, cfg.Lat, h),
		cfg: cfg, woc: WOCState{Entries: make([]WOCEntry, cfg.Sets*cfg.WOCWords)}}
	loc, err := cache.New(cache.Config{
		Name: cfg.Name + "-loc", Sets: cfg.Sets, Ways: cfg.LOCWays, BlockSize: 64,
		OnEvict: func(set int, b *cache.Block) { d.distill(b) },
	})
	if err != nil {
		return nil, err
	}
	d.loc = loc
	return d, nil
}

// distill moves a dying block's accessed words to the WOC when its
// spatial locality was poor.
func (d *Distill) distill(b *cache.Block) {
	units := d.loc.UnitsPerBlock()
	frac := float64(b.AccessedUnits()) / float64(units)
	if frac == 0 || frac > d.cfg.DistillThreshold {
		return
	}
	block := b.Tag << 6
	// Move each accessed 8B word (two 4B units per word).
	for w := 0; w < 8; w++ {
		mask := uint64(0b11) << (2 * w)
		if b.Accessed&mask != 0 {
			d.wocInsert(block + uint64(w*8))
		}
	}
}

// Name identifies the design.
func (d *Distill) Name() string { return d.cfg.Name }

// Efficiency combines both halves.
func (d *Distill) Efficiency() (float64, bool) {
	var used, total float64
	d.loc.ForEach(func(_, _ int, b *cache.Block) {
		used += float64(b.AccessedUnits())
		total += float64(d.loc.UnitsPerBlock())
	})
	for _, e := range d.woc.Entries {
		if e.Valid {
			total += 2 // 8B words are two 4B units
			if e.Used {
				used += 2
			}
		}
	}
	if total == 0 {
		return 0, false
	}
	return used / total, true
}

// wocCovers reports whether the WOC holds every word of [addr,addr+size).
func (d *Distill) wocCovers(addr uint64, size int) bool {
	for a := addr &^ 7; a < addr+uint64(size); a += 8 {
		if !d.wocLookup(a, false) {
			return false
		}
	}
	return true
}

// Fetch implements Frontend.
func (d *Distill) Fetch(addr uint64, size int, now uint64) Result {
	ctx := cache.AccessContext{PC: addr, Cycle: now}
	block := addr &^ 63
	set, way, hit := d.loc.Probe(addr)

	if r, merged := d.Begin(block, now); merged {
		if hit {
			d.loc.MarkAccessedAt(set, way, addr, size)
		}
		return r
	}
	if d.loc.AccessAt(set, way, hit, addr, size, ctx) {
		return d.Hit()
	}
	if d.wocCovers(addr, size) {
		for a := addr &^ 7; a < addr+uint64(size); a += 8 {
			d.wocLookup(a, true)
		}
		d.WOCHits++
		return d.Hit()
	}
	// Demand miss: fill the LOC with the whole 64B block.
	r := d.Miss(block, FullMiss, now, ctx)
	if !r.Issued {
		return r
	}
	// The WOC's partial copy is superseded by the full line.
	d.wocInvalidateBlock(block)
	way, _ = d.loc.FillAt(set, block, ctx)
	d.loc.MarkAccessedAt(set, way, addr, size)
	return r
}

// Prefetch implements Frontend: prefetches fill the LOC.
func (d *Distill) Prefetch(addr uint64, size int, now uint64) {
	block := addr &^ 63
	set, _, hit := d.loc.Probe(block)
	if hit {
		return
	}
	ctx := cache.AccessContext{PC: addr, Cycle: now, Prefetch: true}
	if !d.Engine.Prefetch(block, now, ctx) {
		return
	}
	d.wocInvalidateBlock(block)
	d.loc.FillAt(set, block, ctx)
}
