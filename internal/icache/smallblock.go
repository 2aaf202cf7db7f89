package icache

import (
	"fmt"

	"ubscache/internal/cache"
	"ubscache/internal/mem"
)

// SmallBlock is the Figure 12 baseline: an L1-I with 16B or 32B blocks.
// The L2 interface still moves 64B blocks; a fetched 64B block is parked in
// a fill/prefetch buffer and only the requested small chunks are installed
// into the L1-I array (per §VI-G of the paper). The embedded Engine
// supplies the miss path and the Stats/Latency/MSHRInFlight surface.
type SmallBlock struct {
	*Engine
	cfg    SmallBlockConfig
	c      *cache.Cache
	buffer FillBufferState

	// chunkScratch is the reusable backing array for chunks: fetch ranges
	// stay within one 64B block (the frontend contract), so the per-fetch
	// chunk list is tiny and pre-sized — the fetch path never allocates.
	// slotScratch holds the (set, way) Fetch's probe found per chunk.
	chunkScratch []uint64
	slotScratch  []slot
	// sharedSets reports that two chunks of one 64B block can map to one
	// set (Sets < 64/BlockSize). A fill in Fetch's probe loop may then
	// move a chunk probed earlier, so the hit path probes each chunk again.
	sharedSets bool
}

// slot is a chunk's position in the array.
type slot struct{ set, way int }

var _ Frontend = (*SmallBlock)(nil)
var _ MSHROccupant = (*SmallBlock)(nil)

// SmallBlockConfig sizes the design. The paper sizes the 16B and 32B
// caches to a total storage budget similar to UBS (37.5KB and 35.75KB
// respectively, dominated by a 32KB data array). A degenerate 64B
// configuration — one chunk per block, useful only as a differential
// baseline against Conventional — is also accepted.
type SmallBlockConfig struct {
	Name       string
	BlockSize  int // 16 or 32 (64 for the degenerate differential baseline)
	Sets, Ways int
	Lat        uint64
	MSHRs      int
	BufferCap  int // 64B entries in the fill/prefetch buffer (0 disables it)
}

// SmallBlock16 returns the 16B-block configuration with a 32KB data array.
func SmallBlock16() SmallBlockConfig {
	return SmallBlockConfig{Name: "conv-16B-block", BlockSize: 16,
		Sets: 256, Ways: 8, Lat: 4, MSHRs: 8, BufferCap: 32}
}

// SmallBlock32 returns the 32B-block configuration with a 32KB data array.
func SmallBlock32() SmallBlockConfig {
	return SmallBlockConfig{Name: "conv-32B-block", BlockSize: 32,
		Sets: 128, Ways: 8, Lat: 4, MSHRs: 8, BufferCap: 32}
}

// insert parks a fetched 64B block in a fill buffer of capacity
// entries, overwriting the oldest once full.
func (f *FillBufferState) insert(block uint64, capacity int) {
	if capacity == 0 || f.contains(block) {
		return
	}
	if len(f.Blocks) < capacity {
		f.Blocks = append(f.Blocks, block)
		return
	}
	f.Blocks[f.Pos] = block
	f.Pos = (f.Pos + 1) % capacity
}

func (f *FillBufferState) contains(block uint64) bool {
	for _, b := range f.Blocks {
		if b == block {
			return true
		}
	}
	return false
}

// NewSmallBlock builds the frontend over hierarchy h.
func NewSmallBlock(cfg SmallBlockConfig, h *mem.Hierarchy) (*SmallBlock, error) {
	if cfg.BlockSize != 16 && cfg.BlockSize != 32 && cfg.BlockSize != 64 {
		return nil, fmt.Errorf("icache: small-block size %d not 16, 32, or 64", cfg.BlockSize)
	}
	c, err := cache.New(cache.Config{
		Name: cfg.Name, Sets: cfg.Sets, Ways: cfg.Ways, BlockSize: cfg.BlockSize,
	})
	if err != nil {
		return nil, err
	}
	return &SmallBlock{
		Engine: NewEngine(cfg.MSHRs, cfg.Lat, h),
		cfg:    cfg, c: c,
		buffer:       FillBufferState{Blocks: make([]uint64, 0, cfg.BufferCap)},
		chunkScratch: make([]uint64, 0, 64/cfg.BlockSize+1),
		slotScratch:  make([]slot, 64/cfg.BlockSize+1),
		sharedSets:   cfg.Sets < 64/cfg.BlockSize,
	}, nil
}

// Name identifies the design.
func (sb *SmallBlock) Name() string { return sb.cfg.Name }

// Efficiency reports the storage-efficiency metric over the L1 array.
func (sb *SmallBlock) Efficiency() (float64, bool) { return sb.c.Efficiency() }

// Cache exposes the underlying array.
func (sb *SmallBlock) Cache() *cache.Cache { return sb.c }

// chunks returns the small-block addresses covering [addr, addr+size).
// The returned slice aliases sb.chunkScratch and is valid until the next
// call; the fetch path iterates it immediately and never holds it.
func (sb *SmallBlock) chunks(addr uint64, size int) []uint64 {
	bs := uint64(sb.cfg.BlockSize)
	first := addr &^ (bs - 1)
	last := (addr + uint64(size) - 1) &^ (bs - 1)
	out := sb.chunkScratch[:0]
	for a := first; a <= last; a += bs {
		// The scratch is pre-sized to the 64B-range worst case.
		out = append(out, a)
	}
	sb.chunkScratch = out
	return out
}

// Fetch implements Frontend. A fetch range (within one 64B block) may span
// several small blocks; all must be resident for a hit.
func (sb *SmallBlock) Fetch(addr uint64, size int, now uint64) Result {
	ctx := cache.AccessContext{PC: addr, Cycle: now}
	block64 := addr &^ 63

	if r, merged := sb.Begin(block64, now); merged {
		return r
	}

	chunks := sb.chunks(addr, size)
	missing := false
	for i, ch := range chunks {
		set, way, hit := sb.c.Probe(ch)
		if !hit {
			// The 64B fill buffer can supply the chunk instantly.
			if !sb.buffer.contains(block64) {
				missing = true
				break
			}
			way, _ = sb.c.FillAt(set, ch, ctx)
		}
		sb.slotScratch[i] = slot{set, way}
	}
	if !missing {
		// Mark the exact fetched range accessed chunk by chunk, then do the
		// policy and hit accounting per chunk.
		bs, end := uint64(sb.cfg.BlockSize), addr+uint64(size)
		for i, ch := range chunks {
			set, way, hit := sb.slotScratch[i].set, sb.slotScratch[i].way, true
			if sb.sharedSets {
				set, way, hit = sb.c.Probe(ch)
			}
			if hit {
				lo, hi := max(addr, ch), min(end, ch+bs)
				sb.c.MarkAccessedAt(set, way, lo, int(hi-lo))
			}
			sb.c.AccessAt(set, way, hit, ch, 1, ctx)
		}
		return sb.Hit()
	}

	// Demand miss: fetch the full 64B block from the hierarchy, park it in
	// the buffer, and install only the requested chunks.
	r := sb.Miss(block64, FullMiss, now, ctx)
	if !r.Issued {
		return r
	}
	sb.buffer.insert(block64, sb.cfg.BufferCap)
	for _, ch := range chunks {
		sb.c.Fill(ch, ctx)
	}
	sb.markRange(addr, size)
	return r
}

// markRange records accessed units across the chunked range.
func (sb *SmallBlock) markRange(addr uint64, size int) {
	bs := uint64(sb.cfg.BlockSize)
	end := addr + uint64(size)
	for a := addr; a < end; {
		chunkEnd := (a &^ (bs - 1)) + bs
		n := chunkEnd - a
		if end-a < n {
			n = end - a
		}
		sb.c.MarkAccessed(a, int(n))
		a += n
	}
}

// Prefetch implements Frontend: FDIP-prefetched 64B blocks go to the fill
// buffer only (per §VI-G), not into the L1 array.
func (sb *SmallBlock) Prefetch(addr uint64, size int, now uint64) {
	block64 := addr &^ 63
	if sb.buffer.contains(block64) {
		return
	}
	if _, pending := sb.Pending(block64, now); pending {
		return
	}
	// All requested chunks resident? Nothing to do.
	allHit := true
	for _, ch := range sb.chunks(addr, size) {
		if _, _, hit := sb.c.Probe(ch); !hit {
			allHit = false
			break
		}
	}
	if allHit {
		return
	}
	ctx := cache.AccessContext{PC: addr, Cycle: now, Prefetch: true}
	if sb.Engine.Prefetch(block64, now, ctx) {
		sb.buffer.insert(block64, sb.cfg.BufferCap)
	}
}
