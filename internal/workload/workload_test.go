package workload

import (
	"math"
	"testing"
	"testing/quick"

	"ubscache/internal/snap"
	"ubscache/internal/trace"
)

func testConfig() Config {
	return Config{
		Name:            "test",
		Seed:            42,
		Functions:       64,
		HotBlocksPer:    [2]int{3, 8},
		HotBlockInstrs:  [2]int{2, 8},
		ColdBlockInstrs: [2]int{4, 12},
		ColdFrac:        0.4,
		ColdExecProb:    0.05,
		CondProb:        0.35,
		CallProb:        0.25,
		IndirectFrac:    0.1,
		MaxDepth:        4,
		LoopProb:        0.3,
		LoopIters:       [2]int{2, 6},
		WorkingSetFuncs: 32,
		PhaseLen:        10,
		LoadFrac:        0.25,
		StoreFrac:       0.1,
	}
}

// TestBuildValidatesConfig covers configs Build must reject, among them
// ones that used to pass validate although Build or the Walker could not
// honour them: each then either panicked or produced a silently wrong
// stream.
func TestBuildValidatesConfig(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"one function", func(c *Config) { c.Functions = 1 }},
		{"no hot blocks", func(c *Config) { c.HotBlocksPer = [2]int{0, 3} }},
		{"inverted hot range", func(c *Config) { c.HotBlocksPer = [2]int{5, 3} }},
		{"empty hot blocks", func(c *Config) { c.HotBlockInstrs = [2]int{0, 4} }},
		{"zero depth", func(c *Config) { c.MaxDepth = 0 }},
		{"empty working set", func(c *Config) { c.WorkingSetFuncs = 0 }},
		{"working set past the program", func(c *Config) { c.WorkingSetFuncs = 1000 }},
		{"memory fractions", func(c *Config) { c.LoadFrac = 0.8; c.StoreFrac = 0.3 }},
		{"negative cold block size", func(c *Config) {
			c.ColdBlockInstrs = [2]int{-5, -1}
			c.ColdFrac = 1
		}},
		{"negative cold block size, variable-length", func(c *Config) {
			c.ColdBlockInstrs = [2]int{-5, -1}
			c.ColdFrac = 1
			c.VarLenISA = true
		}},
		{"inverted cold block range", func(c *Config) { c.ColdBlockInstrs = [2]int{9, 3} }},
		{"frame wider than an int", func(c *Config) { c.FrameBytes = 1 << 63 }},
		{"block offsets past uint16", func(c *Config) {
			c.HotBlockInstrs = [2]int{20000, 20000}
			c.VarLenISA = true
		}},
		{"cold block offsets past uint16", func(c *Config) {
			c.ColdBlockInstrs = [2]int{9000, 9000}
			c.VarLenISA = true
		}},
		{"negative instruction size", func(c *Config) { c.InstrSizeRange = [2]int{-3, 2} }},
		{"instruction size past 15 bytes", func(c *Config) {
			c.InstrSizeRange = [2]int{2, 300}
			c.VarLenISA = true
		}},
		{"loop range overflows", func(c *Config) { c.LoopIters = [2]int{0, math.MaxInt} }},
		{"negative loop trips", func(c *Config) { c.LoopIters = [2]int{-4, 2} }},
		{"hot range overflows", func(c *Config) { c.HotBlocksPer = [2]int{1, math.MaxInt} }},
		{"negative drift", func(c *Config) { c.DriftFuncs = -5 }},
		{"drift past the program", func(c *Config) { c.DriftFuncs = math.MaxInt }},
		{"depth past the function count", func(c *Config) { c.Functions = 3; c.WorkingSetFuncs = 2 }},
		{"depth past the walker stack", func(c *Config) { c.Functions = 1000; c.MaxDepth = 65 }},
		{"code past the address space", func(c *Config) { c.CodeBase = math.MaxUint64 - 64 }},
		{"huge function alignment", func(c *Config) { c.FuncAlign = 1 << 62 }},
		{"stack base below the frames", func(c *Config) { c.StackBase = 256 }},
		{"probability above one", func(c *Config) { c.CallProb = 1.5 }},
		{"NaN probability", func(c *Config) { c.ColdExecProb = math.NaN() }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.edit(&cfg)
		if _, err := Build(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	if _, err := Build(testConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestProgramStructure(t *testing.T) {
	p, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != 64 {
		t.Fatalf("got %d functions", len(p.Funcs))
	}
	if p.CodeBytes == 0 {
		t.Fatal("zero code size")
	}
	seen := make(map[uint64]bool)
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		if f.Level != fi%4 {
			t.Errorf("func %d level %d, want %d", fi, f.Level, fi%4)
		}
		if f.Blocks[f.Entry].Cold {
			t.Errorf("func %d entry block is cold", fi)
		}
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			if b.NInstr < 1 {
				t.Fatalf("func %d block %d empty", fi, bi)
			}
			// Blocks must not overlap.
			for a := b.Addr; a < p.End(b); a += InstrBytes {
				if seen[a] {
					t.Fatalf("address %#x covered twice", a)
				}
				seen[a] = true
			}
			// Structural terminator checks.
			switch b.Term.Kind {
			case TermCond, TermJump:
				if b.Term.TargetBlock < 0 || b.Term.TargetBlock >= len(f.Blocks) {
					t.Fatalf("func %d block %d: bad target %d", fi, bi, b.Term.TargetBlock)
				}
			case TermCall:
				callee := &p.Funcs[b.Term.Callee]
				if callee.Level != f.Level+1 {
					t.Fatalf("func %d (level %d) calls func %d (level %d)",
						fi, f.Level, b.Term.Callee, callee.Level)
				}
			case TermIndirectCall:
				callees := p.Callees(&b.Term)
				if len(callees) < 2 {
					t.Fatalf("func %d block %d: indirect call with %d targets",
						fi, bi, len(callees))
				}
				for _, c := range callees {
					if p.Funcs[c].Level != f.Level+1 {
						t.Fatalf("indirect callee at wrong level")
					}
				}
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	p1, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p1.CodeBytes != p2.CodeBytes {
		t.Fatalf("code sizes differ: %d vs %d", p1.CodeBytes, p2.CodeBytes)
	}
	for fi := range p1.Funcs {
		if len(p1.Funcs[fi].Blocks) != len(p2.Funcs[fi].Blocks) {
			t.Fatalf("func %d block counts differ", fi)
		}
		for bi := range p1.Funcs[fi].Blocks {
			a, b := p1.Funcs[fi].Blocks[bi], p2.Funcs[fi].Blocks[bi]
			if a.Addr != b.Addr || a.NInstr != b.NInstr || a.Term.Kind != b.Term.Kind {
				t.Fatalf("func %d block %d differs", fi, bi)
			}
		}
	}
}

func TestWalkerDeterministic(t *testing.T) {
	w1, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		a, _ := w1.Next()
		b, _ := w2.Next()
		if a != b {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a, b)
		}
	}
	if w1.Emitted() != 50000 {
		t.Errorf("Emitted = %d", w1.Emitted())
	}
}

// TestWalkerRestoreContinuesStream pins the walker image: a fresh walker
// restored from a snapshot taken at instruction N emits exactly what the
// original emits after N, across many requests and working-set drifts
// (the test config drifts every 10 requests), and reports the same
// position. The image is taken through a reused State, as checkpoint
// writers do.
func TestWalkerRestoreContinuesStream(t *testing.T) {
	p, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(p)
	var st State
	for _, skip := range []int{0, 1, 977, 20_000} {
		// Past skip instructions, then on to a call depth of 2, so the
		// call stack is part of the image.
		for i := 0; i < skip || (skip > 0 && w.Depth() < 2); i++ {
			w.Next()
		}
		n := w.Emitted()
		w.Snapshot(&st)
		r := NewWalker(p)
		if err := restoreImage(r, &st); err != nil {
			t.Fatalf("restore at %d: %v", n, err)
		}
		if r.Emitted() != w.Emitted() || r.Depth() != w.Depth() {
			t.Fatalf("restore at %d: position %d depth %d, want %d depth %d", n, r.Emitted(), r.Depth(), w.Emitted(), w.Depth())
		}
		// Run the original and the copy in lockstep; the original then
		// skips on to the next snapshot point from where it stands.
		for i := 0; i < 100_000; i++ {
			a, _ := w.Next()
			b, _ := r.Next()
			if a != b {
				t.Fatalf("restored at %d: instruction %d after restore differs: %+v vs %+v", n, i, b, a)
			}
		}
	}
}

func TestWalkerStreamIsValid(t *testing.T) {
	w, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var prev trace.Instr
	for i := 0; i < 100000; i++ {
		in, ok := w.Next()
		if !ok {
			t.Fatal("walker terminated")
		}
		if err := trace.Validate(in); err != nil {
			t.Fatalf("instruction %d invalid: %v (%+v)", i, err, in)
		}
		// Control-flow continuity: each instruction must be the successor
		// of the previous one on the committed path. The synthetic
		// dispatcher loop makes the stream fully continuous.
		if i > 0 && in.PC != prev.NextPC() {
			t.Fatalf("instruction %d at %#x does not follow %#x (next %#x)",
				i, in.PC, prev.PC, prev.NextPC())
		}
		prev = in
	}
}

func TestWalkerDepthBounded(t *testing.T) {
	cfg := testConfig()
	cfg.CallProb = 0.6
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxDepth := 0
	for i := 0; i < 100000; i++ {
		w.Next()
		if d := w.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth >= cfg.MaxDepth {
		t.Errorf("observed call depth %d, static bound %d", maxDepth, cfg.MaxDepth)
	}
	if maxDepth == 0 {
		t.Error("no calls observed")
	}
}

func TestColdCodeRarelyExecutes(t *testing.T) {
	cfg := testConfig()
	cfg.ColdExecProb = 0.02
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identify cold address ranges.
	type rng struct{ lo, hi uint64 }
	var colds []rng
	var coldBytes, totalBytes uint64
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			b := &p.Funcs[fi].Blocks[bi]
			totalBytes += uint64(b.NInstr * InstrBytes)
			if b.Cold {
				colds = append(colds, rng{b.Addr, p.End(b)})
				coldBytes += uint64(b.NInstr * InstrBytes)
			}
		}
	}
	if coldBytes == 0 || float64(coldBytes)/float64(totalBytes) < 0.2 {
		t.Fatalf("cold fraction too small: %d/%d bytes", coldBytes, totalBytes)
	}
	isCold := func(pc uint64) bool {
		for _, r := range colds {
			if pc >= r.lo && pc < r.hi {
				return true
			}
		}
		return false
	}
	w := NewWalker(p)
	coldExec, total := 0, 200000
	for i := 0; i < total; i++ {
		in, _ := w.Next()
		if isCold(in.PC) {
			coldExec++
		}
	}
	frac := float64(coldExec) / float64(total)
	if frac > 0.10 {
		t.Errorf("cold code executed %.1f%% of the time, want rare", 100*frac)
	}
}

func TestSplitColdLayout(t *testing.T) {
	cfg := testConfig()
	cfg.ColdSplit = 1.0
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All cold blocks must be placed after all hot blocks.
	var maxHot, minCold uint64 = 0, ^uint64(0)
	nSplit := 0
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			b := &p.Funcs[fi].Blocks[bi]
			if b.Split {
				nSplit++
				if b.Addr < minCold {
					minCold = b.Addr
				}
			} else if p.End(b) > maxHot {
				maxHot = p.End(b)
			}
		}
	}
	if nSplit == 0 {
		t.Fatal("no split cold blocks")
	}
	if minCold < maxHot {
		t.Errorf("split cold region (%#x) overlaps hot region (ends %#x)", minCold, maxHot)
	}
	// The stream must still be control-flow continuous.
	w := NewWalker(p)
	var prev trace.Instr
	for i := 0; i < 50000; i++ {
		in, _ := w.Next()
		if i > 0 && in.PC != prev.NextPC() {
			t.Fatalf("discontinuity at instruction %d", i)
		}
		prev = in
	}
}

func TestPresetFamilies(t *testing.T) {
	for _, f := range Families() {
		n := FamilyCounts[f]
		if n < 1 {
			t.Errorf("family %s empty", f)
		}
		names := Names(f)
		if len(names) != n {
			t.Errorf("family %s: %d names, want %d", f, len(names), n)
		}
		// First and last workload must build and walk.
		for _, idx := range []int{0, n - 1} {
			cfg, err := Preset(f, idx)
			if err != nil {
				t.Fatalf("Preset(%s,%d): %v", f, idx, err)
			}
			w, err := New(cfg)
			if err != nil {
				t.Fatalf("New(%s_%d): %v", f, idx, err)
			}
			for i := 0; i < 2000; i++ {
				in, ok := w.Next()
				if !ok {
					t.Fatalf("%s: walker stopped", cfg.Name)
				}
				if err := trace.Validate(in); err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
			}
		}
	}
}

func TestPresetErrors(t *testing.T) {
	if _, err := Preset("nope", 0); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Preset(FamilyServer, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := Preset(FamilyServer, 10000); err == nil {
		t.Error("huge index accepted")
	}
}

func TestByName(t *testing.T) {
	cfg, err := ByName("server_003")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "server_003" {
		t.Errorf("got %q", cfg.Name)
	}
	if _, err := ByName("bogus_001"); err == nil {
		t.Error("bogus name accepted")
	}
}

func TestPresetsDiffer(t *testing.T) {
	a, _ := Preset(FamilyServer, 0)
	b, _ := Preset(FamilyServer, 1)
	if a.Seed == b.Seed {
		t.Error("seeds identical across indices")
	}
	if a.Functions == b.Functions && a.WorkingSetFuncs == b.WorkingSetFuncs {
		t.Error("no parameter jitter across indices")
	}
}

func TestFamilyFootprints(t *testing.T) {
	// Server programs must have multi-MB footprints; SPEC must be far
	// smaller. This is the property that drives the paper's MPKI contrast.
	srvCfg, _ := Preset(FamilyServer, 0)
	srv, err := Build(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	specCfg, _ := Preset(FamilySPEC, 0)
	spec, err := Build(specCfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.CodeBytes < 1<<20 {
		t.Errorf("server footprint %d bytes, want >= 1MB", srv.CodeBytes)
	}
	if spec.CodeBytes > srv.CodeBytes/4 {
		t.Errorf("spec footprint %d not much smaller than server %d",
			spec.CodeBytes, srv.CodeBytes)
	}
}

func TestBlockAt(t *testing.T) {
	p, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := &p.Funcs[3].Blocks[p.Funcs[3].Entry]
	fn, blk, ok := p.BlockAt(b.Addr)
	if !ok || fn != 3 || blk != p.Funcs[3].Entry {
		t.Errorf("BlockAt(%#x) = (%d,%d,%v)", b.Addr, fn, blk, ok)
	}
	if _, _, ok := p.BlockAt(1); ok {
		t.Error("BlockAt(1) found a block")
	}
}

func TestHotBytes(t *testing.T) {
	p, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	hb := p.HotBytes()
	if hb == 0 || hb >= p.CodeBytes {
		t.Errorf("HotBytes = %d, CodeBytes = %d", hb, p.CodeBytes)
	}
}

func TestUniformProperty(t *testing.T) {
	f := func(seed int64, lo, span uint8) bool {
		r := [2]int{int(lo), int(lo) + int(span)}
		var rng RNG
		rng.Seed(seed)
		got := uniform(&rng, r)
		return got >= r[0] && got <= r[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJitterBounded(t *testing.T) {
	for i := 0; i < 100; i++ {
		m := jitter(i, 7, 0.3)
		if m < 0.699 || m > 1.301 {
			t.Fatalf("jitter(%d) = %f out of range", i, m)
		}
	}
}

// restoreImage restores st into w through its snap encoding, as a
// checkpoint resume does.
func restoreImage(w *Walker, st *State) error {
	data, err := snap.Marshal(st)
	if err != nil {
		return err
	}
	return w.RestoreInPlace(func(v any) error { return snap.Unmarshal(data, v) })
}
