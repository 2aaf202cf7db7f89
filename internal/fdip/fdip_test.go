package fdip

import (
	"runtime"
	"testing"

	"ubscache/internal/bpu"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/testutil"
	"ubscache/internal/trace"
	"ubscache/internal/workload"
)

func frontend(tb testing.TB) icache.Frontend {
	tb.Helper()
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	cv, err := icache.NewConventional(icache.Baseline32K(), h)
	if err != nil {
		tb.Fatal(err)
	}
	return cv
}

// straightLine builds a trace of sequential instructions with a taken
// branch every n instructions.
func straightLine(total, branchEvery int) []trace.Instr {
	ins := make([]trace.Instr, 0, total)
	pc := uint64(0x10000)
	for i := 0; i < total; i++ {
		in := trace.Instr{PC: pc, Size: 4, Class: trace.ClassOther}
		if branchEvery > 0 && (i+1)%branchEvery == 0 {
			in.Class = trace.ClassDirectJump
			in.Taken = true
			in.Target = pc + 4 // "taken" to the sequential address
		}
		ins = append(ins, in)
		pc = in.NextPC()
	}
	return ins
}

func TestFillRespectsRegionCap(t *testing.T) {
	cfg := Config{Regions: 4, MaxInstrs: 10000, Prefetch: false}
	src := trace.NewSlice(straightLine(10000, 5))
	f := New(cfg, src, bpu.New(bpu.Config{}), frontend(t))
	f.Fill(0)
	if f.Regions() > 4 {
		t.Errorf("regions = %d, cap 4", f.Regions())
	}
	if f.Len() == 0 {
		t.Fatal("nothing enqueued")
	}
	// Popping a region frees capacity.
	before := f.Len()
	f.Pop(5) // one region (5 instrs, last is the taken branch)
	f.Fill(1)
	if f.Len() <= before-5 {
		t.Error("fill did not refill after pop")
	}
}

func TestFillRespectsInstrCap(t *testing.T) {
	cfg := Config{Regions: 1000, MaxInstrs: 64, Prefetch: false}
	src := trace.NewSlice(straightLine(10000, 5))
	f := New(cfg, src, bpu.New(bpu.Config{}), frontend(t))
	f.Fill(0)
	if f.Len() > 64 {
		t.Errorf("len = %d, cap 64", f.Len())
	}
}

func TestMispredictBlocksRunahead(t *testing.T) {
	// A cold indirect jump is a guaranteed mispredict.
	ins := straightLine(10, 0)
	ins = append(ins, trace.Instr{PC: ins[9].NextPC(), Size: 4,
		Class: trace.ClassIndirectJump, Taken: true, Target: 0x90000})
	more := straightLine(10, 0)
	for i := range more {
		more[i].PC = 0x90000 + uint64(i*4)
	}
	ins = append(ins, more...)
	f := New(Config{Regions: 100, MaxInstrs: 1000, Prefetch: false},
		trace.NewSlice(ins), bpu.New(bpu.Config{}), frontend(t))
	f.Fill(0)
	if !f.Blocked() {
		t.Fatal("runahead not blocked at mispredict")
	}
	if f.Len() != 11 {
		t.Errorf("queued %d instrs, want 11 (up to and including the branch)", f.Len())
	}
	// Fill while blocked is a no-op.
	f.Fill(1)
	if f.Len() != 11 {
		t.Error("blocked fill enqueued instructions")
	}
	if f.Stats().BlockedFills == 0 {
		t.Error("blocked fill not counted")
	}
	// Resume continues past the branch.
	f.Resume()
	f.Fill(2)
	if f.Len() != 21 {
		t.Errorf("after resume queued %d, want 21", f.Len())
	}
}

func TestPrefetchIssued(t *testing.T) {
	ic := frontend(t)
	src := trace.NewSlice(straightLine(64, 0)) // 256B = 4 blocks
	f := New(Config{Regions: 100, MaxInstrs: 1000, Prefetch: true},
		src, bpu.New(bpu.Config{}), ic)
	f.Fill(0)
	st := ic.Stats()
	if st.Prefetches != 4 {
		t.Errorf("prefetches = %d, want 4 (one per block)", st.Prefetches)
	}
}

func TestSourceDone(t *testing.T) {
	f := New(Config{Regions: 10, MaxInstrs: 100, Prefetch: false},
		trace.NewSlice(straightLine(5, 0)), bpu.New(bpu.Config{}), frontend(t))
	f.Fill(0)
	if !f.SourceDone() {
		t.Error("source exhaustion not reported")
	}
	if f.Len() != 5 {
		t.Errorf("len = %d", f.Len())
	}
}

func TestPopPanicsPastEnd(t *testing.T) {
	f := New(Config{Regions: 10, MaxInstrs: 100, Prefetch: false},
		trace.NewSlice(straightLine(5, 0)), bpu.New(bpu.Config{}), frontend(t))
	f.Fill(0)
	defer func() {
		if recover() == nil {
			t.Error("no panic on over-pop")
		}
	}()
	f.Pop(6)
}

func TestPeekPop(t *testing.T) {
	f := New(Config{Regions: 10, MaxInstrs: 100, Prefetch: false},
		trace.NewSlice(straightLine(8, 0)), bpu.New(bpu.Config{}), frontend(t))
	f.Fill(0)
	first := f.Peek(0).In.PC
	second := f.Peek(1).In.PC
	if second != first+4 {
		t.Errorf("peek order wrong: %#x then %#x", first, second)
	}
	f.Pop(2)
	if f.Peek(0).In.PC != first+8 {
		t.Error("pop did not advance")
	}
	if f.Peek(100) != nil {
		t.Error("peek past end returned an item")
	}
}

func TestLongRunaheadOverWorkload(t *testing.T) {
	cfg, err := workload.Preset(workload.FamilyClient, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ic := frontend(t)
	f := New(DefaultConfig(), w, bpu.New(bpu.Config{}), ic)
	consumed := 0
	for i := 0; i < 5000; i++ {
		f.Fill(uint64(i))
		if f.Blocked() {
			// Drain to the mispredict and resolve it.
			n := f.Len()
			f.Pop(n)
			consumed += n
			f.Resume()
			continue
		}
		if n := f.Len(); n > 0 {
			take := 4
			if take > n {
				take = n
			}
			f.Pop(take)
			consumed += take
		}
	}
	if consumed < 10000 {
		t.Errorf("consumed only %d instructions", consumed)
	}
	if ic.Stats().Prefetches == 0 {
		t.Error("no FDIP prefetches issued on a real workload")
	}
}

func TestPrefetchWindowBoundsRunahead(t *testing.T) {
	// With a bounded window, only blocks within the window of the fetch
	// head are prefetched even though the FTQ holds far more.
	ic := frontend(t)
	src := trace.NewSlice(straightLine(1024, 0)) // 4KB straight line
	f := New(Config{Regions: 1000, MaxInstrs: 1000, Prefetch: true,
		PrefetchWindow: 64}, src, bpu.New(bpu.Config{}), ic)
	f.Fill(0)
	// 64 instructions = 256B = 4 blocks prefetched.
	if got := ic.Stats().Prefetches; got != 4 {
		t.Fatalf("prefetches = %d, want 4 (window-bounded)", got)
	}
	// Consuming items slides the window forward.
	f.Pop(64)
	f.Fill(1)
	if got := ic.Stats().Prefetches; got != 8 {
		t.Errorf("prefetches after pop = %d, want 8", got)
	}
}

func TestPrefetchWindowZeroIsUnlimited(t *testing.T) {
	ic := frontend(t)
	src := trace.NewSlice(straightLine(256, 0)) // 1KB = 16 blocks
	f := New(Config{Regions: 1000, MaxInstrs: 1000, Prefetch: true},
		src, bpu.New(bpu.Config{}), ic)
	f.Fill(0)
	// The unbounded window walks all 16 blocks immediately; the 8-entry
	// MSHR caps how many issue and the rest are dropped (one drop counted
	// per attempted instruction span).
	st := ic.Stats()
	if st.Prefetches != 8 {
		t.Errorf("issued = %d, want 8 (MSHR-capped)", st.Prefetches)
	}
	if st.PrefetchDrops == 0 {
		t.Error("no drops recorded beyond the MSHR cap")
	}
}

// mirrorCheck verifies the FTQ's live window matches want exactly and
// that no consumed item survives in the backing array past the live
// region — compaction must neither resurrect nor leak entries.
func mirrorCheck(t *testing.T, f *FTQ, want []Item) {
	t.Helper()
	if f.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(want))
	}
	for i := range want {
		it := f.Peek(i)
		if it == nil || *it != want[i] {
			t.Fatalf("Peek(%d) = %+v, want %+v", i, it, want[i])
		}
	}
	if f.Peek(len(want)) != nil {
		t.Fatalf("Peek past end resurrected an entry")
	}
	// Everything in the backing array beyond the live slice must be zero.
	full := f.st.Queue[:cap(f.st.Queue)]
	for i := len(f.st.Queue); i < len(full); i++ {
		if full[i] != (Item{}) {
			t.Fatalf("backing slot %d retains dead item %+v (len=%d head=%d)",
				i, full[i], len(f.st.Queue), f.head)
		}
	}
}

// TestCompactionClearsTailAndPreservesOrder drives Fill/Pop through
// several compaction and drain-rewind cycles, checking after every step
// against the source's instructions that the live window is intact and
// that consumed items are zeroed out of the backing array rather than
// left live in its tail.
func TestCompactionClearsTailAndPreservesOrder(t *testing.T) {
	cfg := Config{Regions: 1 << 20, MaxInstrs: 8, Prefetch: false}
	ins := straightLine(64, 0)
	f := New(cfg, trace.NewSlice(ins), nil, nil)
	if cap(f.st.Queue) != 2*cfg.MaxInstrs {
		t.Fatalf("backing capacity %d, want pre-sized %d", cap(f.st.Queue), 2*cfg.MaxInstrs)
	}
	backing := &f.st.Queue[:1][0]

	check := func() {
		t.Helper()
		var want []Item
		for _, in := range ins[f.st.ConsumedTot:f.st.EnqueuedTot] {
			want = append(want, Item{In: in})
		}
		mirrorCheck(t, f, want)
	}
	fill := func() {
		t.Helper()
		f.Fill(0)
		if f.Len() != cfg.MaxInstrs {
			t.Fatalf("Fill left %d items, want %d", f.Len(), cfg.MaxInstrs)
		}
		check()
	}
	pop := func(n int) {
		t.Helper()
		f.Pop(n)
		check()
	}

	fill()
	pop(6) // head=6, live=2
	fill() // len 14
	pop(5) // head=11, live=3
	fill() // len would pass cap(16) mid-way: compaction must fire
	if f.head != 0 || len(f.st.Queue) != cfg.MaxInstrs {
		t.Fatalf("no compaction: head=%d len=%d", f.head, len(f.st.Queue))
	}
	pop(f.Len()) // full drain: rewind must zero the consumed prefix
	fill()
	pop(3)
	fill()
	pop(7)
	fill() // wander across another compaction
	if &f.st.Queue[:1][0] != backing {
		t.Fatalf("backing array was reallocated; compaction must recycle it")
	}
}

// TestPushSteadyStateAllocFree pins the FTQ's recycled backing array:
// once constructed, continuous Fill/Pop churn across compactions
// performs no allocations.
func TestPushSteadyStateAllocFree(t *testing.T) {
	cfg := Config{Regions: 1 << 20, MaxInstrs: 64, Prefetch: false}
	f := New(cfg, trace.NewSlice(straightLine(12_000, 0)), nil, nil)
	f.Fill(0)
	runtime.GC() // a GC ending inside the window counts the runtime's own allocations
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			f.Pop(1)
			f.Fill(0)
		}
	})
	if allocs != 0 {
		t.Errorf("Fill/Pop churn allocates %.1f allocs/run, want 0", allocs)
	}
	if f.SourceDone() {
		t.Fatal("source ran out: the churn did not run in steady state")
	}
}

// fillPresets are the workloads the runahead's gate and benchmark run:
// a server (front-end bound, where FDIP prefetches most) and a SPEC
// preset (loop code).
var fillPresets = []string{"server_001", "spec_001"}

// steadyFills returns one op of a steady runahead over the named
// preset: the core's side of the FTQ cut to its hand-offs (consume up
// to a fetch width of four instructions, resolve a mispredict at once),
// then one cycle's Fill, which walks the workload, predicts every branch
// and issues FDIP prefetches to a conventional L1-I. The runahead is
// driven past its cold start first.
func steadyFills(tb testing.TB, name string) func() {
	tb.Helper()
	cfg, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := workload.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f := New(DefaultConfig(), w, bpu.New(bpu.Config{}), frontend(tb))
	now := uint64(0)
	op := func() {
		now++
		f.Pop(min(4, f.Len()))
		if f.Blocked() {
			f.Resume()
		}
		f.Fill(now)
	}
	for i := 0; i < 50_000; i++ {
		op()
	}
	return op
}

// TestFillAllocFree pins a steady runahead cycle to 0 allocs/op.
// AllocsPerRun rounds down per run, so a run is 100 cycles.
func TestFillAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	for _, name := range fillPresets {
		t.Run(name, func(t *testing.T) {
			op := steadyFills(t, name)
			runtime.GC() // a GC ending inside the window counts the runtime's own allocations
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 100; i++ {
					op()
				}
			})
			if allocs != 0 {
				t.Errorf("Fill allocates %.0f objects per 100 cycles, want 0", allocs)
			}
		})
	}
}

// BenchmarkFill times the cycles TestFillAllocFree gates, one per op.
func BenchmarkFill(b *testing.B) {
	for _, name := range fillPresets {
		b.Run(name, func(b *testing.B) {
			op := steadyFills(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
