package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// accessByAddr is a demand access by address: Probe, then AccessAt.
func accessByAddr(c *Cache, addr uint64, size int, ctx AccessContext) bool {
	set, way, hit := c.Probe(addr)
	return c.AccessAt(set, way, hit, addr, size, ctx)
}

func small(policy func(int, int) Policy) *Cache {
	return MustNew(Config{
		Name: "t", Sets: 4, Ways: 2, BlockSize: 64, NewPolicy: policy,
	})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1, BlockSize: 64},
		{Sets: 4, Ways: 0, BlockSize: 64},
		{Sets: 4, Ways: 2, BlockSize: 48},           // not power of two
		{Sets: 4, Ways: 2, BlockSize: 64, Unit: 3},  // unit misfit
		{Sets: 4, Ways: 2, BlockSize: 128, Unit: 1}, // >64 units
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
	c := MustNew(Config{Sets: 64, Ways: 8, BlockSize: 64})
	if c.Config().SizeBytes() != 32768 {
		t.Errorf("size = %d", c.Config().SizeBytes())
	}
	if c.UnitsPerBlock() != 16 {
		t.Errorf("units per block = %d", c.UnitsPerBlock())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on bad config")
		}
	}()
	MustNew(Config{})
}

func TestBasicHitMiss(t *testing.T) {
	c := small(nil)
	ctx := AccessContext{Cycle: 1}
	if accessByAddr(c, 0x1000, 4, ctx) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(0x1000, ctx)
	if !accessByAddr(c, 0x1000, 4, ctx) {
		t.Fatal("miss after fill")
	}
	if !accessByAddr(c, 0x103c, 4, ctx) { // same block, last unit
		t.Fatal("miss on other unit of same block")
	}
	if accessByAddr(c, 0x1040, 4, ctx) {
		t.Fatal("hit on adjacent block")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 || st.Fills != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestAccessSpanningBlocksPanics(t *testing.T) {
	c := small(nil)
	defer func() {
		if recover() == nil {
			t.Error("no panic on block-spanning access")
		}
	}()
	accessByAddr(c, 0x103c, 8, AccessContext{})
}

func TestAccessedMask(t *testing.T) {
	c := small(nil)
	ctx := AccessContext{Cycle: 1}
	c.Fill(0x1000, ctx)
	accessByAddr(c, 0x1000, 4, ctx) // unit 0
	accessByAddr(c, 0x1008, 8, ctx) // units 2,3
	accessByAddr(c, 0x1031, 2, ctx) // unit 12 (bytes 0x31-0x32)
	_, way, _ := c.Probe(0x1000)
	set := c.SetIndex(0x1000)
	b := &*c.block(set, way)
	want := uint64(1<<0 | 1<<2 | 1<<3 | 1<<12)
	if b.Accessed != want {
		t.Errorf("Accessed = %#b, want %#b", b.Accessed, want)
	}
	if b.AccessedUnits() != 4 {
		t.Errorf("AccessedUnits = %d", b.AccessedUnits())
	}
}

func TestMarkAccessed(t *testing.T) {
	c := small(nil)
	c.MarkAccessed(0x1000, 4) // absent: no-op
	c.Fill(0x1000, AccessContext{})
	c.MarkAccessed(0x1004, 8)
	_, way, _ := c.Probe(0x1000)
	b := c.block(c.SetIndex(0x1000), way)
	if b.Accessed != 0b110 {
		t.Errorf("Accessed = %#b", b.Accessed)
	}
	if st := c.Stats(); st.Accesses != 0 {
		t.Errorf("MarkAccessed counted as access: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(nil)
	// Set 0 holds blocks whose (addr>>6)%4 == 0: 0x0000, 0x0100, 0x0200...
	ctx := AccessContext{}
	c.Fill(0x0000, ctx)
	c.Fill(0x0100, ctx)
	accessByAddr(c, 0x0000, 4, ctx) // make 0x0000 MRU
	v := c.Fill(0x0200, ctx)        // must evict 0x0100
	if !v.Valid || v.Tag != 0x0100>>6 {
		t.Errorf("victim tag %#x, want %#x", v.Tag, 0x0100>>6)
	}
	if _, _, hit := c.Probe(0x0000); !hit {
		t.Error("MRU block evicted")
	}
	if _, _, hit := c.Probe(0x0100); hit {
		t.Error("LRU block still resident")
	}
}

func TestInvalidate(t *testing.T) {
	c := small(nil)
	c.Fill(0x1000, AccessContext{})
	b, ok := c.Invalidate(0x1000)
	if !ok || b.Tag != 0x1000>>6 {
		t.Errorf("Invalidate = %+v, %v", b, ok)
	}
	if _, ok := c.Invalidate(0x1000); ok {
		t.Error("double invalidate succeeded")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Evictions != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small(nil)
	ctx := AccessContext{}
	c.Fill(0x0000, ctx)
	set, way, _ := c.Probe(0x0000)
	c.SetDirtyAt(set, way)
	c.Fill(0x0100, ctx)
	v := c.Fill(0x0200, ctx)
	if !v.Dirty {
		t.Error("evicted dirty block not flagged")
	}
	if c.Stats().WritebackDirty != 1 {
		t.Errorf("WritebackDirty = %d", c.Stats().WritebackDirty)
	}
}

func TestEvictHook(t *testing.T) {
	var got []Block
	cfg := Config{Sets: 1, Ways: 1, BlockSize: 64,
		OnEvict: func(set int, b *Block) { got = append(got, *b) }}
	c := MustNew(cfg)
	ctx := AccessContext{}
	c.Fill(0x0000, ctx)
	accessByAddr(c, 0x0000, 8, ctx)
	c.Fill(0x1000, ctx) // evicts
	if len(got) != 1 {
		t.Fatalf("hook fired %d times", len(got))
	}
	if got[0].AccessedUnits() != 2 {
		t.Errorf("hook saw %d accessed units, want 2", got[0].AccessedUnits())
	}
}

func TestEvictedUnusedCounter(t *testing.T) {
	c := MustNew(Config{Sets: 1, Ways: 1, BlockSize: 64})
	ctx := AccessContext{}
	c.Fill(0x0000, ctx) // never accessed
	c.Fill(0x1000, ctx)
	if c.Stats().EvictedUnused != 1 {
		t.Errorf("EvictedUnused = %d", c.Stats().EvictedUnused)
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := small(nil)
	c.Fill(0x1000, AccessContext{Prefetch: true})
	st := c.Stats()
	if st.PrefetchFills != 1 {
		t.Errorf("PrefetchFills = %d", st.PrefetchFills)
	}
	accessByAddr(c, 0x1000, 4, AccessContext{})
	if c.Stats().PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d", c.Stats().PrefetchHits)
	}
	// Second hit is not a first-use.
	accessByAddr(c, 0x1000, 4, AccessContext{})
	if c.Stats().PrefetchHits != 1 {
		t.Errorf("PrefetchHits after reuse = %d", c.Stats().PrefetchHits)
	}
}

func TestEfficiency(t *testing.T) {
	c := small(nil)
	if _, ok := c.Efficiency(); ok {
		t.Error("empty cache reported efficiency")
	}
	ctx := AccessContext{}
	c.Fill(0x0000, ctx)
	accessByAddr(c, 0x0000, 32, ctx) // 8 of 16 units
	eff, ok := c.Efficiency()
	if !ok || eff != 0.5 {
		t.Errorf("efficiency = %v, %v; want 0.5", eff, ok)
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// UBS configurations use non-power-of-two set counts (e.g. 40 sets for
	// the 20KB point of Figure 11); the generic array must support them.
	c := MustNew(Config{Sets: 40, Ways: 2, BlockSize: 64})
	ctx := AccessContext{}
	for i := 0; i < 1000; i++ {
		addr := uint64(i) * 64
		c.Fill(addr, ctx)
		if _, _, hit := c.Probe(addr); !hit {
			t.Fatalf("block %#x not resident after fill", addr)
		}
	}
}

func TestFillIdempotentOnResident(t *testing.T) {
	c := small(nil)
	ctx := AccessContext{}
	c.Fill(0x1000, ctx)
	accessByAddr(c, 0x1000, 4, ctx)
	v := c.Fill(0x1000, ctx) // re-fill same block
	if v.Valid {
		t.Error("re-fill evicted something")
	}
	if c.Stats().Fills != 1 {
		t.Errorf("Fills = %d, want 1", c.Stats().Fills)
	}
	// Accessed mask must survive the refill.
	_, way, _ := c.Probe(0x1000)
	if c.block(c.SetIndex(0x1000), way).Accessed == 0 {
		t.Error("accessed mask lost on refill")
	}
}

func TestGHRPLearnsDeadBlocks(t *testing.T) {
	// Stream: block A is reused heavily from one PC; blocks filled by a
	// "cold" PC are never reused. After training, GHRP must keep A
	// resident where LRU would evict it.
	c := MustNew(Config{Sets: 1, Ways: 4, BlockSize: 64, NewPolicy: NewGHRP})
	hotPC, coldPC := uint64(0x9000), uint64(0xF000)
	hot := uint64(0x0000)
	cycle := uint64(0)
	fill := func(addr, pc uint64) {
		cycle++
		c.Fill(addr, AccessContext{PC: pc, Cycle: cycle})
	}
	access := func(addr, pc uint64) bool {
		cycle++
		return accessByAddr(c, addr, 4, AccessContext{PC: pc, Cycle: cycle})
	}
	fill(hot, hotPC)
	// Train: cold fills die without reuse, hot block keeps hitting.
	for i := 0; i < 400; i++ {
		access(hot, hotPC)
		fill(uint64(i+1)*0x40*1, coldPC) // conflicting blocks, never reused
	}
	// After training, the hot block should still be resident most of the
	// time: check it is resident now.
	if _, _, hit := c.Probe(hot); !hit {
		t.Error("GHRP evicted the hot block after training")
	}
}

func TestGHRPVictimsAlwaysValid(t *testing.T) {
	c := MustNew(Config{Sets: 2, Ways: 4, BlockSize: 64, NewPolicy: NewGHRP})
	rng := rand.New(rand.NewSource(3))
	cycle := uint64(0)
	for i := 0; i < 20000; i++ {
		cycle++
		addr := uint64(rng.Intn(256)) * 64
		pc := uint64(rng.Intn(64)) * 4
		ctx := AccessContext{PC: pc, Cycle: cycle}
		if !accessByAddr(c, addr, 4, ctx) {
			c.Fill(addr, ctx)
		}
	}
	if c.ResidentBlocks() != 8 {
		t.Errorf("resident %d, want 8", c.ResidentBlocks())
	}
}

// Property: after any access/fill sequence, (a) each set holds at most Ways
// valid blocks, (b) no tag appears twice in a set, (c) every resident block
// maps to the set it sits in, and (d) hits+misses == accesses.
func TestInvariantsProperty(t *testing.T) {
	policies := map[string]func(int, int) Policy{
		"lru": NewLRU, "ghrp": NewGHRP,
	}
	for name, pol := range policies {
		pol := pol
		f := func(seed int64, opsRaw uint16) bool {
			c := MustNew(Config{Sets: 8, Ways: 4, BlockSize: 64, NewPolicy: pol})
			rng := rand.New(rand.NewSource(seed))
			ops := int(opsRaw)%2000 + 1
			for i := 0; i < ops; i++ {
				addr := uint64(rng.Intn(1024)) * 4
				ctx := AccessContext{PC: addr, Cycle: uint64(i)}
				switch rng.Intn(4) {
				case 0:
					c.Fill(addr, ctx)
				case 1:
					c.Invalidate(addr)
				default:
					sz := 4 * (1 + rng.Intn(4))
					if int(addr&63)+sz > 64 {
						sz = 4
					}
					if !accessByAddr(c, addr, sz, ctx) {
						c.Fill(addr, ctx)
					}
				}
			}
			// Invariants.
			seen := map[uint64]bool{}
			okInv := true
			c.ForEach(func(set, way int, b *Block) {
				if seen[b.Tag] {
					okInv = false
				}
				seen[b.Tag] = true
				if c.SetIndex(b.Tag<<6) != set {
					okInv = false
				}
			})
			st := c.Stats()
			return okInv && st.Hits+st.Misses == st.Accesses
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("policy %s: %v", name, err)
		}
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Accesses: 100, Hits: 75, Misses: 25}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %f", s.HitRate())
	}
	if s.MPKI(1000) != 25 {
		t.Errorf("MPKI = %f", s.MPKI(1000))
	}
	var zero Stats
	if zero.HitRate() != 0 || zero.MPKI(0) != 0 {
		t.Error("zero stats not handled")
	}
}

func TestPolicyNames(t *testing.T) {
	want := map[string]func(int, int) Policy{
		"lru": NewLRU, "ghrp": NewGHRP,
	}
	for name, pol := range want {
		if got := pol(4, 2).Name(); got != name {
			t.Errorf("policy name %q, want %q", got, name)
		}
	}
}
