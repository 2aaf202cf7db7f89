package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ubscache/internal/cache"
)

func TestMSHRBasics(t *testing.T) {
	m := NewMSHR(2)
	if m.Cap() != 2 {
		t.Fatalf("cap %d", m.Cap())
	}
	if _, ok := m.Lookup(0x1000, 0); ok {
		t.Fatal("empty MSHR returned an entry")
	}
	m.Insert(0x1000, 100)
	if done, ok := m.Lookup(0x1000, 10); !ok || done != 100 {
		t.Fatalf("Lookup = %d,%v", done, ok)
	}
	if m.Merges != 1 {
		t.Errorf("Merges = %d", m.Merges)
	}
	m.Insert(0x2000, 120)
	if !m.Full(50) {
		t.Error("MSHR with 2/2 live entries not full")
	}
	// At cycle 100 the first entry expires.
	if m.Full(100) {
		t.Error("MSHR full after expiry")
	}
	if m.InFlight(100) != 1 {
		t.Errorf("InFlight = %d", m.InFlight(100))
	}
}

func TestMSHROverflowPanics(t *testing.T) {
	m := NewMSHR(1)
	m.Insert(1, 100)
	defer func() {
		if recover() == nil {
			t.Error("no panic on overflow")
		}
	}()
	m.Insert(2, 100)
}

func TestMSHRBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero capacity")
		}
	}()
	NewMSHR(0)
}

func TestDRAMRowBuffer(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// First access to a bank: closed row -> activate + CAS.
	c1 := d.Access(0x0, 0)
	if c1 != 20+50+50 {
		t.Errorf("first access completes at %d, want 120", c1)
	}
	// Same row, same bank, after bank frees: row hit -> CAS only.
	c2 := d.Access(0x200, c1+10)
	if c2 != c1+10+20+50 {
		t.Errorf("row hit completes at %d, want %d", c2, c1+10+20+50)
	}
	// Different row, same bank: precharge + activate + CAS.
	c3 := d.Access(1<<14, c2+10)
	want := c2 + 10 + 20 + 150
	// Bank may still be busy (bus cycles), allow start deferral.
	if c3 < want {
		t.Errorf("row miss completes at %d, want >= %d", c3, want)
	}
	if d.RowHits != 1 || d.RowMisses != 2 {
		t.Errorf("row hits/misses = %d/%d", d.RowHits, d.RowMisses)
	}
}

func TestDRAMBankQueueing(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	c1 := d.Access(0x0, 0)
	// Immediately issue to the same bank: must start after busy.
	c2 := d.Access(0x0, 0)
	if c2 <= c1 {
		t.Errorf("second access (%d) not serialised after first (%d)", c2, c1)
	}
	// Different banks do not interfere.
	d2 := NewDRAM(DefaultDRAMConfig())
	d2.Access(0x0, 0)
	cb := d2.Access(0x40, 0) // bank 1
	if cb != 120 {
		t.Errorf("independent bank completes at %d, want 120", cb)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	ctx := cache.AccessContext{}
	// Cold miss: L2 + L3 + DRAM.
	c1, ok := h.FetchBlock(0x1000, 1000, ctx)
	if !ok {
		t.Fatal("cold fetch rejected")
	}
	// DRAM access begins at 1000+12+30, first access = closed row 120.
	want := uint64(1000) + 12 + 30 + 120 + 12
	if c1 != want {
		t.Errorf("cold fetch completes at %d, want %d", c1, want)
	}
	// Refetch (different L1): L2 now holds it.
	c2, ok := h.FetchBlock(0x1000, 2000, ctx)
	if !ok || c2 != 2012 {
		t.Errorf("L2 hit completes at %d (ok=%v), want 2012", c2, ok)
	}
}

func TestHierarchyMSHRMerge(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	ctx := cache.AccessContext{}
	c1, _ := h.FetchBlock(0x4000, 100, ctx)
	// Second request for the same block while outstanding... but the
	// early-fill model installs the block in L2 immediately, so the second
	// request hits L2. Either way it must not be slower than the first.
	c2, ok := h.FetchBlock(0x4000, 101, ctx)
	if !ok {
		t.Fatal("merge rejected")
	}
	if c2 > c1 {
		t.Errorf("merged request completes at %d, after original %d", c2, c1)
	}
}

func TestHierarchyMSHRBackpressure(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L2MSHRs = 2
	h := MustNewHierarchy(cfg)
	ctx := cache.AccessContext{}
	if _, ok := h.FetchBlock(0x10000, 0, ctx); !ok {
		t.Fatal("first fetch rejected")
	}
	if _, ok := h.FetchBlock(0x20000, 0, ctx); !ok {
		t.Fatal("second fetch rejected")
	}
	if _, ok := h.FetchBlock(0x30000, 0, ctx); ok {
		t.Error("third fetch accepted with 2-entry L2 MSHR")
	}
	// After completion the MSHR drains and new fetches succeed.
	if _, ok := h.FetchBlock(0x30000, 100000, ctx); !ok {
		t.Error("fetch rejected after MSHR drain")
	}
}

func TestDataCacheLoadStore(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	d, err := NewDataCache(DefaultDataCacheConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cache.AccessContext{}
	// Cold load misses all the way to DRAM.
	c1, ok := d.Load(0x8000, 0, ctx)
	if !ok {
		t.Fatal("cold load rejected")
	}
	if c1 < 150 {
		t.Errorf("cold load completed at %d, implausibly fast", c1)
	}
	// Hot load: L1-D hit.
	c2, ok := d.Load(0x8000, 1000, ctx)
	if !ok || c2 != 1005 {
		t.Errorf("hit load completes at %d (ok=%v), want 1005", c2, ok)
	}
	// Store hit dirties the block.
	if !d.Store(0x8000, 1100, ctx) {
		t.Fatal("store rejected")
	}
	if d.C.Stats().Hits < 2 {
		t.Errorf("stats %+v", d.C.Stats())
	}
	// Store miss write-allocates.
	if !d.Store(0x9000, 1200, ctx) {
		t.Fatal("store miss rejected")
	}
	if _, _, hit := d.C.Probe(0x9000); !hit {
		t.Error("store miss did not allocate")
	}
}

func TestDataCacheMSHRBackpressure(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	cfg := DefaultDataCacheConfig()
	cfg.MSHRs = 1
	d, err := NewDataCache(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cache.AccessContext{}
	if _, ok := d.Load(0x8000, 0, ctx); !ok {
		t.Fatal("first load rejected")
	}
	if _, ok := d.Load(0x10000, 0, ctx); ok {
		t.Error("second load accepted with 1-entry MSHR")
	}
	// Merging load to the same outstanding block is fine... note the
	// early-fill model makes it an L1 hit; either way it must succeed.
	if _, ok := d.Load(0x8004, 0, ctx); !ok {
		t.Error("same-block load rejected")
	}
}

func TestDefaultConfigsMatchTableI(t *testing.T) {
	hc := DefaultHierarchyConfig()
	if hc.L2Sets*hc.L2Ways*hc.BlockSize != 512<<10 {
		t.Errorf("L2 size = %d", hc.L2Sets*hc.L2Ways*hc.BlockSize)
	}
	if hc.L3Sets*hc.L3Ways*hc.BlockSize != 2<<20 {
		t.Errorf("L3 size = %d", hc.L3Sets*hc.L3Ways*hc.BlockSize)
	}
	if hc.L2Lat != 12 || hc.L3Lat != 30 || hc.L2MSHRs != 32 || hc.L3MSHRs != 64 {
		t.Errorf("latencies/MSHRs: %+v", hc)
	}
	dc := DefaultDataCacheConfig()
	if dc.Sets*dc.Ways*dc.BlockSize != 48<<10 || dc.Lat != 5 || dc.MSHRs != 16 {
		t.Errorf("L1D config: %+v", dc)
	}
	dr := DefaultDRAMConfig()
	if dr.Banks != 8 || dr.TRP != 50 || dr.TRCD != 50 || dr.TCAS != 50 {
		t.Errorf("DRAM config: %+v", dr)
	}
}

func TestMSHRExpiryBoundary(t *testing.T) {
	// An entry completing at cycle done is no longer in flight at done
	// itself: expiry drops done <= now, so merges happen strictly before
	// completion.
	m := NewMSHR(4)
	m.Insert(0x1000, 100)
	if _, ok := m.Lookup(0x1000, 99); !ok {
		t.Error("entry not live one cycle before completion")
	}
	if _, ok := m.Lookup(0x1000, 100); ok {
		t.Error("entry still live at its completion cycle")
	}
	if n := m.InFlight(100); n != 0 {
		t.Errorf("InFlight at completion = %d", n)
	}
	// Peek shares the same boundary but never counts a merge.
	m.Insert(0x2000, 200)
	merges := m.Merges
	if _, ok := m.Peek(0x2000, 199); !ok {
		t.Error("Peek missed a live entry")
	}
	if _, ok := m.Peek(0x2000, 200); ok {
		t.Error("Peek returned an expired entry")
	}
	if m.Merges != merges {
		t.Errorf("Peek changed Merges: %d -> %d", merges, m.Merges)
	}
}

func TestMSHRFullIsPureAndStallsAreExplicit(t *testing.T) {
	m := NewMSHR(1)
	m.Insert(0x40, 1000)
	for i := 0; i < 5; i++ {
		if !m.Full(0) {
			t.Fatal("full MSHR not reported full")
		}
	}
	if m.FullStall != 0 {
		t.Errorf("speculative Full checks counted %d stalls", m.FullStall)
	}
	m.RecordFullStall()
	m.RecordFullStall()
	if m.FullStall != 2 {
		t.Errorf("FullStall = %d, want 2", m.FullStall)
	}
}

func TestFetchBlockRetryLeavesHierarchyUntouched(t *testing.T) {
	// A fetch aborted by a full downstream MSHR must not perturb L2/L3
	// counters or replacement state: its retry next cycle would otherwise
	// double-count misses.
	cfg := DefaultHierarchyConfig()
	cfg.L3MSHRs = 1
	h := MustNewHierarchy(cfg)
	ctx := cache.AccessContext{}
	// Occupy the single L3 MSHR with a cold fetch.
	if _, ok := h.FetchBlock(0x10000, 0, ctx); !ok {
		t.Fatal("first fetch rejected")
	}
	l2Before, l3Before := h.L2.Cache.Stats(), h.L3.Cache.Stats()
	dramBefore := h.DRAM.Accesses
	// Retry a different cold block several times under the full L3 MSHR.
	const retries = 3
	for i := 0; i < retries; i++ {
		if _, ok := h.FetchBlock(0x20000, uint64(i), ctx); ok {
			t.Fatal("fetch accepted with full L3 MSHR")
		}
	}
	if l2After := h.L2.Cache.Stats(); l2After != l2Before {
		t.Errorf("aborted fetches changed L2 stats: %+v -> %+v", l2Before, l2After)
	}
	if l3After := h.L3.Cache.Stats(); l3After != l3Before {
		t.Errorf("aborted fetches changed L3 stats: %+v -> %+v", l3Before, l3After)
	}
	if h.DRAM.Accesses != dramBefore {
		t.Error("aborted fetch reached DRAM")
	}
	// The stall statistic equals the retry count, on the MSHR that forced
	// the aborts, and nothing is recorded on the unaffected L2 MSHR.
	if h.L3.MSHR.FullStall != retries {
		t.Errorf("L3 FullStall = %d, want %d", h.L3.MSHR.FullStall, retries)
	}
	if h.L2.MSHR.FullStall != 0 {
		t.Errorf("L2 FullStall = %d, want 0", h.L2.MSHR.FullStall)
	}
	// After the outstanding miss completes, the same request succeeds and
	// only then do the L2/L3 counters move.
	if _, ok := h.FetchBlock(0x20000, 100000, ctx); !ok {
		t.Fatal("fetch rejected after MSHR drain")
	}
	if h.L2.Cache.Stats().Misses != l2Before.Misses+1 {
		t.Errorf("L2 misses = %d, want %d", h.L2.Cache.Stats().Misses, l2Before.Misses+1)
	}
}

func TestFetchBlockRetryPreservesLRU(t *testing.T) {
	// Replacement state must also survive aborts: fill an L2 set, touch
	// its blocks in a known order, abort a fetch, and check the original
	// LRU victim is still chosen.
	cfg := DefaultHierarchyConfig()
	cfg.L2Sets, cfg.L2Ways = 2, 2
	cfg.L2MSHRs = 1
	h := MustNewHierarchy(cfg)
	ctx := cache.AccessContext{}
	set0a := uint64(0x0000) // set 0
	set0b := uint64(0x8000) // also set 0 (sets=2, so bit 6 selects the set)
	h.L2.Cache.Fill(set0a, cache.AccessContext{Cycle: 1})
	h.L2.Cache.Fill(set0b, cache.AccessContext{Cycle: 2})
	// Touch a so b becomes the LRU victim.
	s, w, hit := h.L2.Cache.Probe(set0a)
	h.L2.Cache.AccessAt(s, w, hit, set0a, 64, cache.AccessContext{Cycle: 3})
	// Fill the L2 MSHR so the next L2-missing fetch aborts.
	if _, ok := h.FetchBlock(0x10040, 10, ctx); !ok {
		t.Fatal("setup fetch rejected")
	}
	// This fetch hits set 0 in the probe (miss) and aborts on the MSHR; it
	// must not refresh either resident block.
	if _, ok := h.FetchBlock(0x20000, 11, ctx); ok {
		t.Fatal("fetch accepted with full L2 MSHR")
	}
	victim := h.L2.Cache.Fill(0x30000, cache.AccessContext{Cycle: 20})
	if !victim.Valid || victim.Tag != set0b>>6 {
		t.Errorf("victim tag %#x, want %#x (LRU order perturbed by abort)",
			victim.Tag, set0b>>6)
	}
}

func TestDataCacheStoreMergeDirtiness(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	d, err := NewDataCache(DefaultDataCacheConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cache.AccessContext{}
	// Cold load allocates the block with an outstanding MSHR entry.
	done, ok := d.Load(0x8000, 0, ctx)
	if !ok {
		t.Fatal("cold load rejected")
	}
	// In the early-fill model the block is already resident, so a store
	// issued before the miss completes hits it and dirties it: the data
	// will be dirty once the fill lands.
	if !d.Store(0x8004, done-1, ctx) {
		t.Fatal("pre-completion store rejected")
	}
	set, way, hit := d.C.Probe(0x8000)
	if !hit {
		t.Fatal("merged store's block not resident")
	}
	var dirty bool
	d.C.ForEach(func(s, w int, b *cache.Block) {
		if s == set && w == way {
			dirty = b.Dirty
		}
	})
	if !dirty {
		t.Error("store merged into outstanding miss did not dirty the block")
	}
	// At the completion boundary (now == done) the MSHR entry has expired:
	// the store is an ordinary hit on the filled block and stays dirty.
	if !d.Store(0x8008, done, ctx) {
		t.Fatal("boundary store rejected")
	}
	if _, merged := d.MSHR.Peek(d.C.BlockAddr(0x8000), done); merged {
		t.Error("MSHR entry still live at its completion cycle")
	}
}

func TestDataCacheStoreMergeAfterEviction(t *testing.T) {
	// If the early-filled block is evicted while its miss is outstanding, a
	// merging store dirties nothing: the dirtiness is dropped with the
	// copy. This pins the documented early-fill semantics.
	h := MustNewHierarchy(DefaultHierarchyConfig())
	d, err := NewDataCache(DefaultDataCacheConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := cache.AccessContext{}
	done, ok := d.Load(0x8000, 0, ctx)
	if !ok {
		t.Fatal("cold load rejected")
	}
	d.C.Invalidate(0x8000)
	if !d.Store(0x8004, done-1, ctx) {
		t.Fatal("merging store rejected")
	}
	if _, _, hit := d.C.Probe(0x8000); hit {
		t.Fatal("invalidated block resurrected by merging store")
	}
	var anyDirty bool
	d.C.ForEach(func(_, _ int, b *cache.Block) { anyDirty = anyDirty || b.Dirty })
	if anyDirty {
		t.Error("merging store dirtied an unrelated block")
	}
}

func TestMSHRMatchesReferenceModel(t *testing.T) {
	// Property: the heap-based MSHR behaves exactly like the obvious
	// map-based model under random interleavings of Lookup/Peek/Full/
	// Insert with a monotonic clock.
	f := func(seed int64, capRaw uint8) bool {
		capN := int(capRaw)%8 + 1
		m := NewMSHR(capN)
		ref := map[uint64]uint64{} // block -> done
		rng := rand.New(rand.NewSource(seed))
		now := uint64(0)
		for i := 0; i < 800; i++ {
			now += uint64(rng.Intn(30))
			for b, done := range ref {
				if done <= now {
					delete(ref, b)
				}
			}
			block := uint64(rng.Intn(16)) * 64
			wantDone, wantLive := ref[block]
			gotDone, gotLive := m.Peek(block, now)
			if wantLive != gotLive || (wantLive && wantDone != gotDone) {
				return false
			}
			if m.InFlight(now) != len(ref) {
				return false
			}
			if gotLive {
				continue
			}
			full := m.Full(now)
			if full != (len(ref) >= capN) {
				return false
			}
			if !full {
				done := now + uint64(1+rng.Intn(200))
				m.Insert(block, done)
				ref[block] = done
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMSHRNeverExceedsCapProperty(t *testing.T) {
	// Property: under arbitrary insert/lookup/expiry interleavings gated by
	// Full(), live entries never exceed capacity.
	f := func(seed int64, capRaw uint8) bool {
		capN := int(capRaw)%8 + 1
		m := NewMSHR(capN)
		rng := rand.New(rand.NewSource(seed))
		now := uint64(0)
		for i := 0; i < 500; i++ {
			now += uint64(rng.Intn(30))
			block := uint64(rng.Intn(16)) * 64
			if _, merged := m.Lookup(block, now); merged {
				continue
			}
			if !m.Full(now) {
				m.Insert(block, now+uint64(1+rng.Intn(200)))
			}
			if m.InFlight(now) > capN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDRAMMonotonicCompletion(t *testing.T) {
	// Property: completions never precede issue time, and repeated access
	// to one bank serialises.
	f := func(seed int64) bool {
		d := NewDRAM(DefaultDRAMConfig())
		rng := rand.New(rand.NewSource(seed))
		now := uint64(0)
		lastPerBank := map[int]uint64{}
		for i := 0; i < 300; i++ {
			now += uint64(rng.Intn(40))
			addr := uint64(rng.Intn(4096)) * 64
			done := d.Access(addr, now)
			if done <= now {
				return false
			}
			bank := int((addr >> 6) % 8)
			if prev, ok := lastPerBank[bank]; ok && done < prev {
				return false // bank went back in time
			}
			lastPerBank[bank] = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
