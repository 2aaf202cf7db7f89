package ubs

import (
	"math/rand"
	"testing"

	"ubscache/internal/icache"
)

func TestCongruenceConfigValidates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeadBlockWays = true
	cfg.AdmissionFilter = true
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	u := MustNew(cfg, hier())
	if u.st.Dead == nil || u.st.Admit == nil {
		t.Fatal("extensions not constructed")
	}
}

func TestAdmissionFilterBypassesDeadRegions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdmissionFilter = true
	u := MustNew(cfg, hier())
	// Simulate a region whose sub-blocks keep dying: train the filter down
	// directly, then verify moveToWays bypasses placement.
	block := uint64(0x200000)
	for i := 0; i < 8; i++ {
		u.st.Admit.trainDead(block)
	}
	if u.st.Admit.admit(block) {
		t.Fatal("region still admitted after repeated death training")
	}
	u.moveToWays(block, rangeMask(0, 3), rangeMask(0, 3), 1)
	if w, _ := u.ResidentBlocks(); w != 0 {
		t.Error("filtered run was placed")
	}
	if u.UBSStats().Congruence.FilteredRuns != 1 {
		t.Errorf("FilteredRuns = %d", u.UBSStats().Congruence.FilteredRuns)
	}
	// Reuse training re-admits the region.
	for i := 0; i < 8; i++ {
		u.st.Admit.trainReuse(block)
	}
	u.moveToWays(block, rangeMask(0, 3), rangeMask(0, 3), 2)
	if w, _ := u.ResidentBlocks(); w != 1 {
		t.Error("re-admitted run not placed")
	}
}

func TestDeadBlockWaysPrefersDeadVictims(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeadBlockWays = true
	u := MustNew(cfg, hier())
	set := u.sets.index(0x10000)
	// Fill the 16B-class candidate window (ways 7..10) with four
	// sub-blocks; make way 8's signature strongly predicted dead and give
	// it the *most recent* LRU stamp so plain LRU would never pick it.
	blocks := []uint64{0x10000, 0x10000 + 64*64, 0x10000 + 2*64*64, 0x10000 + 3*64*64}
	for i, w := range []int{7, 8, 9, 10} {
		u.st.Clock++
		sig := u.st.Dead.signature(blocks[i], 0)
		u.ways(set)[w] = WayEntry{Valid: true, Tag: blocks[i], Start: 0,
			Stored: u.wayG[w], Accessed: 1, LRU: u.st.Clock, Sig: sig, Reused: true}
	}
	deadSig := u.ways(set)[8].Sig
	u.ways(set)[8].LRU = ^uint64(0) >> 1 // most recent
	for i := 0; i < 8; i++ {
		u.st.Dead.train(deadSig, true)
	}
	if !u.st.Dead.predictDead(deadSig) {
		t.Fatal("signature not predicted dead after training")
	}
	u.moveToWays(0x80000, rangeMask(0, 3), rangeMask(0, 3), 100)
	if u.ways(set)[8].Tag != 0x80000 {
		t.Error("dead-predicted way not chosen as victim")
	}
	if u.UBSStats().Congruence.DeadVictims != 1 {
		t.Errorf("DeadVictims = %d", u.UBSStats().Congruence.DeadVictims)
	}
}

func TestCongruenceEndToEndInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeadBlockWays = true
	cfg.AdmissionFilter = true
	u := MustNew(cfg, hier())
	rng := rand.New(rand.NewSource(17))
	now := uint64(0)
	for i := 0; i < 100000; i++ {
		now += uint64(1 + rng.Intn(50))
		addr := 0x40000 + uint64(rng.Intn(8192))*8
		size := 4 * (1 + rng.Intn(4))
		if int(addr&63)+size > 64 {
			size = 64 - int(addr&63)
		}
		if rng.Intn(5) == 0 {
			u.Prefetch(addr, size, now)
		} else {
			u.Fetch(addr, size, now)
		}
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := u.UBSStats()
	if st.Hits+st.Misses > st.Fetches {
		t.Errorf("inconsistent stats")
	}
	t.Logf("congruence events: %+v", st.Congruence)
}

func TestByteGranuleEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OffsetGranule = 1
	u := MustNew(cfg, hier())
	// Unaligned, odd-sized fetches (x86-like).
	rng := rand.New(rand.NewSource(23))
	now := uint64(0)
	for i := 0; i < 100000; i++ {
		now += uint64(1 + rng.Intn(50))
		addr := 0x40000 + uint64(rng.Intn(32768))
		size := 1 + rng.Intn(11)
		if int(addr&63)+size > 64 {
			size = 64 - int(addr&63)
		}
		u.Fetch(addr, size, now)
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Byte-granular partial misses must arise.
	st := u.Stats()
	if st.ByKind[icache.Overrun]+st.ByKind[icache.Underrun]+st.ByKind[icache.MissingSubBlock] == 0 {
		t.Error("no partial misses at byte granularity")
	}
	if eff, ok := u.Efficiency(); !ok || eff <= 0 || eff > 1 {
		t.Errorf("efficiency %v, %v", eff, ok)
	}
}

func TestStartOffsetBitsByteGranule(t *testing.T) {
	// §IV-C: variable-length ISAs need 6-bit start offsets for the
	// smallest sub-blocks.
	if got := StartOffsetBitsAt(4, 1); got != 6 {
		t.Errorf("StartOffsetBitsAt(4,1) = %d, want 6", got)
	}
	if got := StartOffsetBitsAt(64, 1); got != 0 {
		t.Errorf("StartOffsetBitsAt(64,1) = %d, want 0", got)
	}
}
