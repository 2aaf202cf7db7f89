package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// fillGeometries are the caches FuzzFillAt drives: both policies, power
// of two and non-power-of-two set counts, direct-mapped through 4-way.
var fillGeometries = []Config{
	{Name: "lru-1x4", Sets: 1, Ways: 4, BlockSize: 64},
	{Name: "lru-4x2", Sets: 4, Ways: 2, BlockSize: 64},
	{Name: "lru-3x4", Sets: 3, Ways: 4, BlockSize: 16},
	{Name: "lru-6x1", Sets: 6, Ways: 1, BlockSize: 32},
	{Name: "ghrp-1x4", Sets: 1, Ways: 4, BlockSize: 64, NewPolicy: NewGHRP},
	{Name: "ghrp-4x2", Sets: 4, Ways: 2, BlockSize: 64, NewPolicy: NewGHRP},
	{Name: "ghrp-3x4", Sets: 3, Ways: 4, BlockSize: 16, NewPolicy: NewGHRP},
	{Name: "ghrp-5x3", Sets: 5, Ways: 3, BlockSize: 32, NewPolicy: NewGHRP},
}

// maxFillOps caps a FuzzFillAt stream: a target whose work grows with
// its input keeps finding coverage in ever longer inputs and stalls
// minimizing them.
const maxFillOps = 128

// refFill is Fill as it was before FillAt: probe, take the first free
// way if the set has one, and ask the policy for a victim only when it
// has none.
func refFill(c *Cache, addr uint64, ctx AccessContext) (victim Block) {
	set, way, hit := c.Probe(addr)
	if hit {
		c.policy.OnHit(set, way, c.block(set, way), ctx)
		return Block{}
	}
	way = -1
	blocks := c.ways(set)
	for w := range blocks {
		if !blocks[w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.Victim(set, blocks, ctx)
		victim = *c.block(set, way)
		c.evict(set, way)
	}
	*c.block(set, way) = Block{
		Valid: true, Tag: addr >> c.blockShift, Prefetched: ctx.Prefetch,
		InsertCycle: ctx.Cycle, LastAccess: ctx.Cycle,
	}
	c.st.Stats.Fills++
	if ctx.Prefetch {
		c.st.Stats.PrefetchFills++
	}
	c.policy.OnFill(set, way, c.block(set, way), ctx)
	return victim
}

// refSetDirty marks the block containing addr dirty if it is resident.
func refSetDirty(c *Cache, addr uint64) {
	if set, way, hit := c.Probe(addr); hit {
		c.block(set, way).Dirty = true
	}
}

// sameState reports whether two snapshots are equal.
func sameState(a, b *State) bool {
	return slices.Equal(a.Blocks, b.Blocks) && a.Stats == b.Stats &&
		a.Policy.Clock == b.Policy.Clock && a.Policy.History == b.Policy.History &&
		bytes.Equal(a.Policy.Tables, b.Policy.Tables)
}

// FuzzFillAt drives one stream of loads, stores, prefetch fills,
// refreshing fills and invalidations through a cache that probes each
// set once (Probe, then AccessAt/FillAt/MarkAccessedAt/SetDirtyAt at the
// probed way) and through a reference that works by address and fills
// by the old free-way rule. Every victim and every Snapshot must agree.
func FuzzFillAt(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for g := range fillGeometries {
		ops := make([]byte, 1+3*maxFillOps)
		rng.Read(ops)
		ops[0] = byte(g)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 1+3*maxFillOps {
			ops = ops[:1+3*maxFillOps]
		}
		cfg := fillGeometries[int(ops[0])%len(fillGeometries)]
		got, ref := MustNew(cfg), MustNew(cfg)
		var gs, rs State
		for i := 1; i+3 <= len(ops); i += 3 {
			kind, a, b := ops[i]%5, uint64(ops[i+1]), ops[i+2]
			// 64 blocks' worth of addresses: enough to thrash every set.
			addr := a * uint64(cfg.BlockSize) / 4
			off := addr & uint64(cfg.BlockSize-1)
			size := 1 + int(b)%int(uint64(cfg.BlockSize)-off)
			ctx := AccessContext{PC: uint64(b) << 2, Cycle: uint64(i), Prefetch: kind == 2}
			var gv, rv Block
			switch kind {
			case 0, 1: // load (0) or store (1): write-allocate on a miss
				set, way, hit := got.Probe(addr)
				if !got.AccessAt(set, way, hit, addr, size, ctx) {
					way, gv = got.FillAt(set, addr, ctx)
					got.MarkAccessedAt(set, way, addr, size)
				}
				if kind == 1 {
					got.SetDirtyAt(set, way)
				}
				set, way, hit = ref.Probe(addr)
				if !ref.AccessAt(set, way, hit, addr, size, ctx) {
					rv = refFill(ref, addr, ctx)
					ref.MarkAccessed(addr, size)
				}
				if kind == 1 {
					refSetDirty(ref, addr)
				}
			case 2: // prefetch: fill only what the probe missed
				if set, _, hit := got.Probe(addr); !hit {
					_, gv = got.FillAt(set, addr, ctx)
				}
				if _, _, hit := ref.Probe(addr); !hit {
					rv = refFill(ref, addr, ctx)
				}
			case 3: // Fill by address refreshes a resident block
				gv, rv = got.Fill(addr, ctx), refFill(ref, addr, ctx)
			case 4:
				gv, _ = got.Invalidate(addr)
				rv, _ = ref.Invalidate(addr)
			}
			if gv != rv {
				t.Fatalf("%s op %d (kind %d addr %#x): victim %+v, reference %+v", cfg.Name, i/3, kind, addr, gv, rv)
			}
			got.Snapshot(&gs)
			ref.Snapshot(&rs)
			if !sameState(&gs, &rs) {
				t.Fatalf("%s op %d (kind %d addr %#x): state diverged from the reference", cfg.Name, i/3, kind, addr)
			}
		}
	})
}

// TestVictimPrefersFirstFreeWay checks the rule FillAt relies on: with a
// free way in the set, each policy's Victim returns the first one,
// whatever the valid ways' recency and (for GHRP) dead predictions.
func TestVictimPrefersFirstFreeWay(t *testing.T) {
	for _, pol := range []func(int, int) Policy{NewLRU, NewGHRP} {
		rng := rand.New(rand.NewSource(7))
		c := MustNew(Config{Sets: 1, Ways: 8, BlockSize: 64, NewPolicy: pol})
		for i := range c.st.Policy.Tables {
			c.st.Policy.Tables[i] = uint8(rng.Intn(ghrpCounterMax + 1))
		}
		blocks := c.ways(0)
		for valid := 0; valid < 1<<len(blocks)-1; valid++ {
			free := -1
			for w := range blocks {
				blocks[w] = Block{
					Valid: valid>>w&1 == 1, LRU: rng.Uint64() % 16,
					Signature: rng.Uint32() & (1<<ghrpHistoryBits - 1),
				}
				if !blocks[w].Valid && free < 0 {
					free = w
				}
			}
			if got := c.policy.Victim(0, blocks, AccessContext{}); got != free {
				t.Fatalf("%s: valid mask %#b: Victim = %d, want first free way %d", c.policy.Name(), valid, got, free)
			}
		}
	}
}
