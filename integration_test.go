package ubscache

// Cross-module integration tests: golden determinism, paper-shape
// assertions at test scale, and differential checks between designs.

import (
	"testing"
)

// TestGoldenDeterminism pins the exact cycle count of a small run. If this
// test fails after an intentional model change, update the constant — it
// exists to catch *accidental* behavioural drift anywhere in the stack
// (workload generation, BPU, caches, core timing).
func TestGoldenDeterminism(t *testing.T) {
	w, err := ParseWorkload("spec_001")
	if err != nil {
		t.Fatal(err)
	}
	opts := Quick()
	opts.Warmup = 20_000
	opts.Measure = 50_000
	a, err := SimulateWorkload(Conventional(32), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateWorkload(Conventional(32), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Core.Cycles != b.Core.Cycles {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Core.Cycles, b.Core.Cycles)
	}
	if a.ICache.Fetches != b.ICache.Fetches || a.BPU.Mispredictions != b.BPU.Mispredictions {
		t.Fatal("nondeterministic counters")
	}
}

// TestPaperShapeEfficiencyGap asserts the paper's §VI-B headline at test
// scale: UBS storage efficiency beats the conventional baseline by a wide
// margin on every family.
func TestPaperShapeEfficiencyGap(t *testing.T) {
	if testing.Short() {
		t.Skip("timed simulations")
	}
	opts := Quick()
	opts.Warmup = 100_000
	opts.Measure = 400_000
	for _, fam := range []Family{FamilyServer, FamilyClient, FamilySPEC, FamilyGoogle} {
		name := WorkloadNames(fam)[0]
		w, err := ParseWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := SimulateWorkload(Conventional(32), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		u, err := SimulateWorkload(UBS(), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		be, ue := avg(base.EffSamples), avg(u.EffSamples)
		if gap := ue - be; gap < 0.10 {
			t.Errorf("%s: efficiency gap %.2f (conv %.2f, ubs %.2f), want >= 0.10",
				name, gap, be, ue)
		}
		t.Logf("%s: conv %.1f%%, ubs %.1f%%", name, 100*be, 100*ue)
	}
}

// TestPaperShapeServerOrdering asserts Figure 10's qualitative ordering on
// a server workload: conv-32KB <= UBS <= conv-64KB in IPC (with a small
// tolerance for noise at test scale).
func TestPaperShapeServerOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("timed simulations")
	}
	w, err := ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	opts := Quick()
	base, _ := SimulateWorkload(Conventional(32), w, opts)
	u, _ := SimulateWorkload(UBS(), w, opts)
	c64, _ := SimulateWorkload(Conventional(64), w, opts)
	if u.IPC() < base.IPC()*0.995 {
		t.Errorf("UBS IPC %.4f below baseline %.4f", u.IPC(), base.IPC())
	}
	if c64.IPC() < u.IPC()*0.99 {
		t.Errorf("conv-64KB IPC %.4f below UBS %.4f", c64.IPC(), u.IPC())
	}
	// And UBS must reduce misses relative to the baseline.
	if u.MPKI() >= base.MPKI() {
		t.Errorf("UBS MPKI %.2f not below baseline %.2f", u.MPKI(), base.MPKI())
	}
}

// TestPartialMissesOnlyOnUBS: conventional designs never produce the
// partial-miss kinds.
func TestPartialMissesOnlyOnUBS(t *testing.T) {
	w, err := ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	opts := Quick()
	opts.Warmup = 30_000
	opts.Measure = 100_000
	base, err := SimulateWorkload(Conventional(32), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.ICache.PartialMissFraction() != 0 {
		t.Error("conventional cache reported partial misses")
	}
	u, err := SimulateWorkload(UBS(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if u.ICache.PartialMissFraction() == 0 {
		t.Error("UBS reported no partial misses on a server workload")
	}
}

// TestX86DesignEndToEnd runs the byte-granule UBS on the x86 family.
func TestX86DesignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timed simulations")
	}
	w, err := ParseWorkload("x86-server_001")
	if err != nil {
		t.Fatal(err)
	}
	opts := Quick()
	opts.Warmup = 50_000
	opts.Measure = 200_000
	rep, err := SimulateWorkload(UBSX86(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IPC() <= 0 || rep.IPC() > 4 {
		t.Errorf("x86 UBS IPC %f", rep.IPC())
	}
	if rep.UBS == nil || rep.UBS.Placements == 0 {
		t.Error("no sub-block placements on x86 workload")
	}
}

// TestCongruenceDesignsEndToEnd runs the §VI-H combinations.
func TestCongruenceDesignsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timed simulations")
	}
	w, err := ParseWorkload("server_002")
	if err != nil {
		t.Fatal(err)
	}
	opts := Quick()
	opts.Warmup = 30_000
	opts.Measure = 120_000
	for _, variant := range []struct {
		name        string
		dead, admit bool
	}{
		{"ubs+ghrp", true, false},
		{"ubs+acic", false, true},
		{"ubs+both", true, true},
	} {
		cfg := DefaultUBSConfig()
		cfg.Name = variant.name
		cfg.DeadBlockWays = variant.dead
		cfg.AdmissionFilter = variant.admit
		rep, err := SimulateWorkload(UBSCustom(cfg), w, opts)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		if rep.IPC() <= 0 {
			t.Errorf("%s: IPC %f", variant.name, rep.IPC())
		}
	}
}
