package workload

import (
	"sort"
	"testing"

	"ubscache/internal/trace"
)

func presetConfig(tb testing.TB, name string) Config {
	tb.Helper()
	cfg, err := ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg
}

// BenchmarkBuild times program synthesis for a large (server) and a small
// (SPEC) preset; resumes and fresh runs pay it once per simulation.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"server_001", "spec_001"} {
		cfg := presetConfig(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllocGate bounds Build's allocations: the program's blocks,
// offsets and callee lists come from a few arena chunks, so the count
// does not grow with the number of blocks (server_001 has ~75k).
func TestBuildAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a server program several times")
	}
	cfg := presetConfig(t, "server_001")
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("Build(server_001) makes %.0f allocations, want <= 64", allocs)
	}
}

// FuzzBuild builds programs from arbitrary configs (kept small) and walks
// them. Build must either reject the config or produce a program whose
// stream stays inside its blocks and the dispatcher loop, within the
// static call-depth bound.
func FuzzBuild(f *testing.F) {
	add := func(c Config, funcs int) {
		f.Add(c.Seed, funcs, c.HotBlocksPer[0], c.HotBlocksPer[1], c.HotBlockInstrs[0], c.HotBlockInstrs[1],
			c.ColdBlockInstrs[0], c.ColdBlockInstrs[1], c.ColdFrac, c.ColdSplit, c.FuncAlign, c.CodeBase,
			c.ColdExecProb, c.CondProb, c.CallProb, c.IndirectFrac, c.MaxDepth, c.LoopProb,
			c.LoopIters[0], c.LoopIters[1], funcs/2, 3, c.DriftFuncs, c.LoadFrac, c.StoreFrac,
			c.DataFootprint, c.StackBase, c.FrameBytes, c.VarLenISA, c.InstrSizeRange[0], c.InstrSizeRange[1])
	}
	for _, name := range []string{"server_001", "spec_001", "client_001", "google_001", "x86-server_001", "cvp-fp_001"} {
		add(presetConfig(f, name), 24)
	}
	// Variable-length blocks exactly at their 16-bit offset limit.
	long := presetConfig(f, "x86-server_001")
	long.HotBlocksPer, long.HotBlockInstrs, long.InstrSizeRange = [2]int{1, 3}, [2]int{4369, 4369}, [2]int{15, 15}
	add(long, 8)
	f.Fuzz(func(t *testing.T, seed int64, funcs, hot0, hot1, hi0, hi1, ci0, ci1 int, coldFrac, coldSplit float64,
		align, codeBase uint64, coldExec, cond, call, indirect float64, depth int, loop float64,
		li0, li1, wsf, phase, drift int, load, store float64, dataFoot, stackBase, frame uint64,
		varLen bool, is0, is1 int) {
		// Keep programs small, but let a few blocks be long enough to
		// overflow 16-bit variable-length offsets.
		if funcs > 64 || hot1 > 64 || hi1 > 1<<16 || ci1 > 1<<16 ||
			int64(funcs)*int64(hot1)*(int64(hi1)+int64(ci1)) > 1<<18 {
			t.Skip("program too large for a fuzz iteration")
		}
		cfg := Config{
			Name: "fuzz", Seed: seed, Functions: funcs,
			HotBlocksPer: [2]int{hot0, hot1}, HotBlockInstrs: [2]int{hi0, hi1},
			ColdBlockInstrs: [2]int{ci0, ci1}, ColdFrac: coldFrac, ColdSplit: coldSplit,
			FuncAlign: align, CodeBase: codeBase, ColdExecProb: coldExec, CondProb: cond,
			CallProb: call, IndirectFrac: indirect, MaxDepth: depth, LoopProb: loop,
			LoopIters: [2]int{li0, li1}, WorkingSetFuncs: wsf, PhaseLen: phase, DriftFuncs: drift,
			LoadFrac: load, StoreFrac: store, DataFootprint: dataFoot, StackBase: stackBase,
			FrameBytes: frame, VarLenISA: varLen, InstrSizeRange: [2]int{is0, is1},
		}
		p, err := Build(cfg)
		if err != nil {
			return
		}
		checkWalkInBlocks(t, p, 10_000)
	})
}

// checkWalkInBlocks walks p for n instructions and fails on overlapping
// blocks, an invalid or discontinuous instruction, a PC outside the
// program's blocks and the dispatcher loop, or a call depth at or past
// the configured bound.
func checkWalkInBlocks(t *testing.T, p *Program, n int) {
	t.Helper()
	type span struct{ lo, hi uint64 }
	var spans []span
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			b := &p.Funcs[fi].Blocks[bi]
			spans = append(spans, span{b.Addr, p.End(b)})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for k := 1; k < len(spans); k++ {
		if spans[k].lo < spans[k-1].hi {
			t.Fatalf("blocks [%#x,%#x) and [%#x,%#x) overlap", spans[k-1].lo, spans[k-1].hi, spans[k].lo, spans[k].hi)
		}
	}
	cfg := p.Config()
	w := NewWalker(p)
	var prev trace.Instr
	for i := 0; i < n; i++ {
		in, _ := w.Next()
		if err := trace.Validate(in); err != nil {
			t.Fatalf("instruction %d: %v", i, err)
		}
		if i > 0 && in.PC != prev.NextPC() {
			t.Fatalf("instruction %d at %#x does not follow %#x (next %#x)", i, in.PC, prev.PC, prev.NextPC())
		}
		prev = in
		if in.PC == cfg.CodeBase || in.PC == cfg.CodeBase+4 {
			continue
		}
		k := sort.Search(len(spans), func(k int) bool { return spans[k].lo > in.PC }) - 1
		if k < 0 || in.PC >= spans[k].hi || in.PC+uint64(in.Size) > spans[k].hi {
			t.Fatalf("instruction %d at %#x (size %d) is not inside a block", i, in.PC, in.Size)
		}
		if w.Depth() >= cfg.MaxDepth {
			t.Fatalf("instruction %d: call depth %d, static bound %d", i, w.Depth(), cfg.MaxDepth)
		}
	}
}
