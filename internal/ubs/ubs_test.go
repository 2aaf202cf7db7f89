package ubs

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/testutil"
)

func hier() *mem.Hierarchy {
	return mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
}

func newDefault(tb testing.TB) *Cache {
	tb.Helper()
	u, err := New(DefaultConfig(), hier())
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.WaySizes) != 16 {
		t.Errorf("%d ways, want 16", len(c.WaySizes))
	}
	if got := c.DataBytesPerSet(); got != 444 {
		t.Errorf("way bytes/set = %d, want 444", got)
	}
	// Including the predictor way: 508B per set (Table III).
	if got := c.TotalDataBytes(); got != 64*508 {
		t.Errorf("total data bytes = %d, want %d", got, 64*508)
	}
	if c.Sets != 64 || c.PredictorSets != 64 || c.PredictorWays != 1 {
		t.Errorf("geometry: %+v", c)
	}
	if c.Lat != 4 || c.MSHRs != 8 || c.PlacementWindow != 4 {
		t.Errorf("params: %+v", c)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Sets = 0 },
		func(c *Config) { c.WaySizes = nil },
		func(c *Config) { c.WaySizes = []int{4, 8, 6} }, // not multiple of 4... 6 invalid
		func(c *Config) { c.WaySizes = []int{8, 4} },    // not ascending
		func(c *Config) { c.WaySizes = []int{4, 128} },  // > block
		func(c *Config) { c.PredictorSets = 0 },
		func(c *Config) { c.PlacementWindow = 0 },
		func(c *Config) { c.MSHRs = 0 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStartOffsetBits(t *testing.T) {
	// Table III: 64B ways need 0 bits, 52B needs 2, 36B/32B need 3, the
	// rest need 4.
	cases := map[int]int{64: 0, 52: 2, 36: 3, 32: 4, 24: 4, 16: 4, 12: 4, 8: 4, 4: 4}
	// NB: the paper's Table III assigns 3 bits to the 36B ways and counts
	// the 32B way among the 4-bit group (10 ways with 4 bits): a 32B
	// sub-block has 9 possible starts, needing 4 bits.
	for size, want := range cases {
		if got := StartOffsetBits(size); got != want {
			t.Errorf("StartOffsetBits(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestGranuleHelpers(t *testing.T) {
	u := MustNew(DefaultConfig(), hier())
	block, g0, g1 := u.granules(0x1044, 8)
	if block != 0x1040 || g0 != 1 || g1 != 2 {
		t.Errorf("granules = %#x,%d,%d", block, g0, g1)
	}
	if rangeMask(0, 15) != 0xffff {
		t.Errorf("full mask = %#x", rangeMask(0, 15))
	}
	if rangeMask(2, 3) != 0b1100 {
		t.Errorf("mask(2,3) = %#b", rangeMask(2, 3))
	}
	if rangeMask(0, 63) != ^uint64(0) {
		t.Errorf("byte-granule full mask = %#x", rangeMask(0, 63))
	}
	if popcount(0b1011) != 3 {
		t.Error("popcount wrong")
	}
	// Byte granularity: the same address range covers 4x the granules.
	bcfg := DefaultConfig()
	bcfg.OffsetGranule = 1
	ub := MustNew(bcfg, hier())
	_, g0b, g1b := ub.granules(0x1044, 8)
	if g0b != 4 || g1b != 11 {
		t.Errorf("byte granules = %d..%d, want 4..11", g0b, g1b)
	}
}

func TestGranulesPanicsOnSpan(t *testing.T) {
	u := MustNew(DefaultConfig(), hier())
	defer func() {
		if recover() == nil {
			t.Error("no panic on block-spanning fetch")
		}
	}()
	u.granules(0x103c, 8)
}

func TestExtractRuns(t *testing.T) {
	cases := []struct {
		mask uint64
		want []run
	}{
		{0, nil},
		{0b1, []run{{0, 1}}},
		{0b1110, []run{{1, 3}}},
		{0b1011_0001, []run{{0, 1}, {4, 2}, {7, 1}}},
		{0xffff, []run{{0, 16}}},
		{0x8000, []run{{15, 1}}},
		{^uint64(0), []run{{0, 64}}},
		{uint64(1) << 63, []run{{63, 1}}},
	}
	for _, c := range cases {
		got := extractRunsInto(nil, c.mask)
		if len(got) != len(c.want) {
			t.Errorf("mask %#b: runs %v, want %v", c.mask, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("mask %#b: runs %v, want %v", c.mask, got, c.want)
				break
			}
		}
	}
}

// Property: extracted runs exactly reconstruct the mask and never overlap.
func TestExtractRunsProperty(t *testing.T) {
	f := func(mask uint64) bool {
		runs := extractRunsInto(nil, mask)
		var re uint64
		prevEnd := -1
		for _, r := range runs {
			if r.start <= prevEnd || r.len < 1 {
				return false
			}
			re |= rangeMask(r.start, r.end()-1)
			prevEnd = r.end()
		}
		return re == mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColdFetchGoesToPredictor(t *testing.T) {
	u := newDefault(t)
	r := u.Fetch(0x10000, 8, 100)
	if r.Kind != icache.FullMiss || !r.Issued {
		t.Fatalf("cold fetch = %+v", r)
	}
	// While pending: merged miss.
	r2 := u.Fetch(0x10008, 8, 101)
	if r2.Kind != icache.FullMiss || r2.Complete != r.Complete {
		t.Fatalf("pending fetch = %+v", r2)
	}
	// After arrival: predictor hit.
	r3 := u.Fetch(0x10000, 8, r.Complete+1)
	if r3.Kind != icache.Hit {
		t.Fatalf("post-fill fetch = %+v", r3)
	}
	st := u.UBSStats()
	if st.PredictorHits != 1 || st.WayHits != 0 {
		t.Errorf("hits: %+v", st)
	}
	if err := u.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// evictFromPredictor fetches a conflicting block so that block's entry is
// distilled into the ways. Both blocks must map to the same predictor set.
func evictFromPredictor(t *testing.T, u *Cache, conflict uint64, now uint64) uint64 {
	t.Helper()
	r := u.Fetch(conflict, 4, now)
	if !r.Issued {
		t.Fatal("conflict fetch rejected")
	}
	return r.Complete + 1
}

func TestPredictorEvictionDistillsRuns(t *testing.T) {
	u := newDefault(t)
	a := uint64(0x10000)
	b := a + 64*64         // same predictor set (64 sets) and same cache set
	r := u.Fetch(a, 16, 0) // granules 0..3 of A
	now := r.Complete + 1
	now = evictFromPredictor(t, u, b, now)
	// A's accessed granules live in a way now: a 16B run fits way class 7
	// (16B); fetches inside [0,16) hit.
	r2 := u.Fetch(a, 16, now)
	if r2.Kind != icache.Hit {
		t.Fatalf("sub-block fetch = %+v", r2)
	}
	if u.UBSStats().WayHits != 1 {
		t.Errorf("WayHits = %d", u.UBSStats().WayHits)
	}
	ways, pred := u.ResidentBlocks()
	if ways != 1 || pred != 1 {
		t.Errorf("resident = %d ways, %d predictor", ways, pred)
	}
	if err := u.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartialMissTaxonomy(t *testing.T) {
	u := newDefault(t)
	a := uint64(0x10000)
	b := a + 64*64
	// Touch granules 4..7 of A (bytes 16..31), then distil.
	r := u.Fetch(a+16, 16, 0)
	now := r.Complete + 1
	now = evictFromPredictor(t, u, b, now)

	// Overrun: starts inside the sub-block, runs past its end.
	// Sub-block stored is [4..8) granules (16B run in a 16B way).
	r2 := u.Fetch(a+24, 16, now) // granules 6..9
	if r2.Kind != icache.Overrun {
		t.Fatalf("overrun fetch = %v", r2.Kind)
	}
	now = r2.Complete + 1

	// Rebuild the same sub-block state for the next scenario.
	now = evictFromPredictor(t, u, a+2*64*64, now)
	// A's bytes were re-fetched into the predictor by the overrun miss and
	// the salvage; distilling again puts them back in a way. Granules 4..9
	// are now accessed (6..9 from the overrun fetch + salvaged 4..7).
	// Underrun: ends inside a sub-block, starts before it.
	r3 := u.Fetch(a+8, 16, now) // granules 2..5
	if r3.Kind != icache.Underrun {
		t.Fatalf("underrun fetch = %v (stats %+v)", r3.Kind, u.UBSStats())
	}
	now = r3.Complete + 1

	// Missing sub-block: tag matches, requested bytes entirely absent.
	now = evictFromPredictor(t, u, a+3*64*64, now)
	r4 := u.Fetch(a+56, 8, now) // granules 14..15, never touched
	if r4.Kind != icache.MissingSubBlock {
		t.Fatalf("missing-sub-block fetch = %v", r4.Kind)
	}

	// Full miss: no tag match at all.
	r5 := u.Fetch(0x900000, 4, r4.Complete+1)
	if r5.Kind != icache.FullMiss {
		t.Fatalf("full miss fetch = %v", r5.Kind)
	}
	st := u.Stats()
	if st.ByKind[icache.Overrun] != 1 || st.ByKind[icache.Underrun] != 1 ||
		st.ByKind[icache.MissingSubBlock] != 1 {
		t.Errorf("taxonomy counts: %v", st.ByKind)
	}
	if err := u.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDedupOnPartialMiss(t *testing.T) {
	u := newDefault(t)
	a := uint64(0x10000)
	b := a + 64*64
	r := u.Fetch(a, 16, 0)
	now := r.Complete + 1
	now = evictFromPredictor(t, u, b, now)
	// Partial miss on A: its sub-block must be invalidated (no duplicate
	// bytes) and A must be back in the predictor with salvaged bits.
	r2 := u.Fetch(a+32, 16, now)
	if !r2.Kind.IsPartial() {
		t.Fatalf("fetch = %v, want partial miss", r2.Kind)
	}
	set := u.sets.index(a)
	for w := range u.ways(set) {
		if u.ways(set)[w].Valid && u.ways(set)[w].Tag == a {
			t.Fatal("stale sub-block of A survived the partial miss")
		}
	}
	e := u.pred.lookup(a, false)
	if e == nil {
		t.Fatal("A not in predictor after partial miss")
	}
	// Salvaged granules 0..3 plus the demanded 8..11.
	want := rangeMask(0, 3) | rangeMask(8, 11)
	if e.Mask != want {
		t.Errorf("predictor mask = %#b, want %#b", e.Mask, want)
	}
	if u.UBSStats().SalvagedMoves != 1 {
		t.Errorf("SalvagedMoves = %d", u.UBSStats().SalvagedMoves)
	}
	if err := u.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPlacementWindow(t *testing.T) {
	u := newDefault(t)
	// A 16-byte run (4 granules) must land in ways 7..10 (sizes 16,24,32,36).
	u.moveToWays(0x10000, rangeMask(0, 3), rangeMask(0, 3), 1)
	set := u.sets.index(0x10000)
	found := -1
	for w := range u.ways(set) {
		if u.ways(set)[w].Valid {
			found = w
		}
	}
	if found < 7 || found > 10 {
		t.Errorf("16B run placed in way %d, want 7..10", found)
	}
	// A full-block run must land in ways 13..15 (64B ways).
	u.moveToWays(0x20000, 0xffff, 0xffff, 2)
	set2 := u.sets.index(0x20000)
	found = -1
	for w := 13; w <= 15; w++ {
		if u.ways(set2)[w].Valid && u.ways(set2)[w].Tag == 0x20000 {
			found = w
		}
	}
	if found < 0 {
		t.Error("full-block run not in a 64B way")
	}
	if err := u.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestModifiedLRUWithinWindow(t *testing.T) {
	u := newDefault(t)
	set := u.sets.index(0x10000)
	// Fill ways 7..10 with sub-blocks of distinct blocks, oldest in way 9.
	blocks := []uint64{0x10000, 0x10000 + 64*64, 0x10000 + 2*64*64, 0x10000 + 3*64*64}
	order := []int{9, 7, 10, 8} // LRU order: way 9 oldest
	for i, w := range order {
		u.st.Clock++
		u.ways(set)[w] = WayEntry{Valid: true, Tag: blocks[i], Start: 0,
			Stored: u.wayG[w], Accessed: 1, LRU: u.st.Clock}
	}
	// Placing a new 16B run must evict way 9 (LRU within 7..10).
	u.moveToWays(0x80000, rangeMask(0, 3), rangeMask(0, 3), 100)
	if u.ways(set)[9].Tag != 0x80000 {
		t.Errorf("new sub-block in way %d's place, want way 9 victim", 9)
	}
}

func TestTrailingFill(t *testing.T) {
	u := newDefault(t)
	// 4-granule run starting at 0: smallest fitting way is 16B; if the
	// window places it in a larger way, extra granules fill with trailing
	// bytes. Force a 24B way by occupying way 7 freshly.
	set := u.sets.index(0x10000)
	u.st.Clock++
	u.ways(set)[7] = WayEntry{Valid: true, Tag: 0x99000, Start: 0, Stored: 4,
		Accessed: 1, LRU: ^uint64(0) >> 1} // very recent
	// Other candidates 8..10 invalid -> way 8 (24B) chosen.
	u.moveToWays(0x10000, rangeMask(0, 3), rangeMask(0, 3), 1)
	e := &u.ways(set)[8]
	if !e.Valid || e.Tag != 0x10000 {
		t.Fatalf("run not in way 8: %+v", e)
	}
	if e.Stored != 6 { // 24B = 6 granules
		t.Errorf("stored = %d granules, want 6 (trailing fill)", e.Stored)
	}
	if e.Accessed != rangeMask(0, 3) {
		t.Errorf("accessed = %#b", e.Accessed)
	}
	if u.UBSStats().TrailingFills != 2 {
		t.Errorf("TrailingFills = %d", u.UBSStats().TrailingFills)
	}
}

func TestTrailingFillDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FillTrailing = false
	u := MustNew(cfg, hier())
	set := u.sets.index(0x10000)
	u.st.Clock++
	u.ways(set)[7] = WayEntry{Valid: true, Tag: 0x99000, Start: 0, Stored: 4,
		Accessed: 1, LRU: ^uint64(0) >> 1}
	u.moveToWays(0x10000, rangeMask(0, 3), rangeMask(0, 3), 1)
	if e := &u.ways(set)[8]; e.Valid && e.Stored != 4 {
		t.Errorf("stored = %d granules with FillTrailing off, want 4", e.Stored)
	}
}

func TestRunAbsorption(t *testing.T) {
	u := newDefault(t)
	// Runs [0..3] and [5..5] with a one-granule gap: the first run's
	// trailing fill (if the way stores >=6 granules) absorbs the second.
	set := u.sets.index(0x10000)
	// Make ways 7 recent so the 24B way 8 is used (stores 6 granules).
	u.st.Clock++
	u.ways(set)[7] = WayEntry{Valid: true, Tag: 0x99000, Start: 0, Stored: 4,
		Accessed: 1, LRU: ^uint64(0) >> 1}
	mask := rangeMask(0, 3) | rangeMask(5, 5)
	u.moveToWays(0x10000, mask, mask, 1)
	st := u.UBSStats()
	if st.AbsorbedRuns != 1 {
		t.Errorf("AbsorbedRuns = %d, want 1 (placements=%d)", st.AbsorbedRuns, st.Placements)
	}
	if st.Placements != 1 {
		t.Errorf("Placements = %d, want 1", st.Placements)
	}
	e := &u.ways(set)[8]
	if !e.containsGranule(5) {
		t.Error("absorbed granule not covered by the sub-block")
	}
	if e.Accessed&rangeMask(5, 5) == 0 {
		t.Error("absorbed run's accessed bit lost")
	}
	if err := u.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDiscardedBlocks(t *testing.T) {
	u := newDefault(t)
	u.moveToWays(0x10000, 0, 0, 1)
	if u.UBSStats().DiscardedBlocks != 1 {
		t.Errorf("DiscardedBlocks = %d", u.UBSStats().DiscardedBlocks)
	}
	if w, _ := u.ResidentBlocks(); w != 0 {
		t.Error("zero-mask block produced sub-blocks")
	}
}

func TestPrefetchEntersPredictor(t *testing.T) {
	u := newDefault(t)
	u.Prefetch(0x30000, 64, 0)
	if u.Stats().Prefetches != 1 {
		t.Fatalf("Prefetches = %d", u.Stats().Prefetches)
	}
	if u.pred.lookup(0x30000, false) == nil {
		t.Fatal("prefetched block not in predictor")
	}
	// Redundant prefetch is dropped.
	u.Prefetch(0x30000, 64, 1)
	if u.Stats().Prefetches != 1 {
		t.Error("duplicate prefetch issued")
	}
	// Demand fetch after arrival hits in the predictor.
	r := u.Fetch(0x30000, 16, 100000)
	if r.Kind != icache.Hit {
		t.Errorf("fetch after prefetch = %+v", r)
	}
}

func TestMSHRBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	u := MustNew(cfg, hier())
	if r := u.Fetch(0x10000, 4, 0); !r.Issued {
		t.Fatal("first miss rejected")
	}
	if r := u.Fetch(0x20000, 4, 0); r.Issued {
		t.Error("second miss accepted with 1 MSHR")
	}
	if u.Stats().MSHRStalls == 0 {
		t.Error("stall not counted")
	}
}

func TestEfficiencyMetric(t *testing.T) {
	u := newDefault(t)
	if _, ok := u.Efficiency(); ok {
		t.Error("empty cache reported efficiency")
	}
	r := u.Fetch(0x10000, 32, 0) // 8 of 16 granules in the predictor entry
	_ = r
	eff, ok := u.Efficiency()
	if !ok || eff != 0.5 {
		t.Errorf("efficiency = %v,%v, want 0.5", eff, ok)
	}
}

func TestSizedConfigs(t *testing.T) {
	for _, kb := range []int{16, 20, 32, 64, 128} {
		c := Sized(kb)
		if err := c.Validate(); err != nil {
			t.Errorf("Sized(%d): %v", kb, err)
		}
		want := 64 * kb / 32
		if c.Sets != want || c.PredictorSets != want {
			t.Errorf("Sized(%d): sets %d/%d, want %d", kb, c.Sets, c.PredictorSets, want)
		}
	}
	if Sized(20).Sets != 40 {
		t.Errorf("20KB sets = %d, want 40 (non-power-of-two)", Sized(20).Sets)
	}
}

func TestWayConfigs(t *testing.T) {
	for _, wc := range WayConfigs {
		c, err := WithWays(wc.Ways, wc.Variant)
		if err != nil {
			t.Fatalf("WithWays(%d,%d): %v", wc.Ways, wc.Variant, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("config %d/%d invalid: %v", wc.Ways, wc.Variant, err)
		}
		if len(c.WaySizes) != wc.Ways {
			t.Errorf("config %d/%d has %d ways", wc.Ways, wc.Variant, len(c.WaySizes))
		}
		// Budgets stay near the default 444B/set (±20%).
		b := c.DataBytesPerSet()
		if b < 355 || b > 533 {
			t.Errorf("config %d/%d budget %dB/set out of band", wc.Ways, wc.Variant, b)
		}
	}
	if _, err := WithWays(11, 1); err == nil {
		t.Error("unknown way config accepted")
	}
}

func TestPredictorVariants(t *testing.T) {
	for _, v := range PredictorVariants {
		c, err := WithPredictor(v.Name)
		if err != nil {
			t.Fatal(err)
		}
		u := MustNew(c, hier())
		// Drive a short random stream; invariants must hold throughout.
		rng := rand.New(rand.NewSource(5))
		now := uint64(0)
		for i := 0; i < 3000; i++ {
			now += 10
			addr := 0x10000 + uint64(rng.Intn(4096))*16
			size := 4 * (1 + rng.Intn(4))
			if int(addr&63)+size > 64 {
				size = 4
			}
			u.Fetch(addr, size, now)
		}
		if err := u.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
		st := u.Stats()
		if st.Hits+st.Misses > st.Fetches {
			t.Errorf("%s: inconsistent stats %+v", v.Name, st)
		}
	}
	if _, err := WithPredictor("nope"); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// The headline structural claim: for a 32KB-class budget, UBS supports
// more than twice the blocks of the conventional 8-way cache (16 ways + 1
// predictor way = 1088 entries vs 512), and a warm cache with a realistic
// mix of spatial localities keeps most of those entries occupied.
func TestBlockCountVsConventional(t *testing.T) {
	u := newDefault(t)
	capacity := u.cfg.Sets*len(u.cfg.WaySizes) + u.cfg.PredictorSets*u.cfg.PredictorWays
	if capacity < 2*512 {
		t.Fatalf("UBS entry capacity %d not 2x the conventional 512", capacity)
	}
	rng := rand.New(rand.NewSource(9))
	now := uint64(0)
	for i := 0; i < 300000; i++ {
		now += 5
		// Mixed spatial locality: fetch spans from 4B to a full block so
		// every way class sees pressure.
		base := 0x100000 + uint64(rng.Intn(8192))*64
		off := uint64(rng.Intn(16)) * 4
		size := 4 << rng.Intn(5) // 4..64
		if int(off)+size > 64 {
			size = 64 - int(off)
		}
		u.Fetch(base+off, size, now)
	}
	ways, pred := u.ResidentBlocks()
	total := ways + pred
	if total < capacity*7/10 {
		t.Errorf("warm occupancy %d/%d below 70%% (%d ways + %d predictor)",
			total, capacity, ways, pred)
	}
	if err := u.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsAllocFree pins the scratch-buffer rewrite: the
// invariant sweep over a warm cache must not allocate, so the harness can
// run it per-interval without GC pressure.
func TestCheckInvariantsAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	u := newDefault(t)
	for i := 0; i < 8192; i++ {
		u.Fetch(0x10000+uint64(i%4096)*16, 8, uint64(i*4))
	}
	// One priming call grows the scratch buffers to their high-water mark.
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	runtime.GC() // a GC ending inside the window counts the runtime's own allocations
	allocs := testing.AllocsPerRun(100, func() {
		if err := u.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CheckInvariants allocates %.1f objects per call, want 0", allocs)
	}
}
