// Package bench defines the hot-path microbenchmark suite behind the
// `go test -bench HotPath` family and TestHotPathAllocGate. End-to-end
// and per-layer performance is measured by the repository benchmark in
// perfbench/.
//
// Each case drives one per-access hot path of the timing model in steady
// state — MSHR churn, the L2/L3/DRAM hierarchy walk, L1-D loads, UBS
// fetches — plus one end-to-end simulation measured in ns per simulated
// instruction. All cases are deterministic: fixed address streams, fixed
// clock advance, no RNG.
package bench

import (
	"context"
	"testing"

	"ubscache/internal/cache"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/sim"
	"ubscache/internal/ubs"
	"ubscache/internal/workload"
)

// Case is one hot-path microbenchmark.
type Case struct {
	Name string
	// AllocFree declares the steady-state contract TestHotPathAllocGate
	// enforces: the measured loop must report 0 allocs/op.
	AllocFree bool
	Bench     func(b *testing.B)
}

// simInstrs is the measured-instruction count of the end-to-end case.
const simInstrs = 100_000

// obsInstrs is the per-op instruction count of the NilObserver case.
const obsInstrs = 10_000

// Cases returns the suite in a stable order.
func Cases() []Case {
	return []Case{
		{Name: "MSHR", AllocFree: true, Bench: benchMSHR},
		{Name: "FetchBlock", AllocFree: true, Bench: benchFetchBlock},
		{Name: "EngineFetch", AllocFree: true, Bench: benchEngineFetch},
		{Name: "DataCacheLoad", AllocFree: true, Bench: benchDataCacheLoad},
		{Name: "UBSFetch", AllocFree: true, Bench: benchUBSFetch},
		{Name: "SimInstr", AllocFree: true, Bench: benchSimInstr},
		{Name: "NilObserver", AllocFree: true, Bench: benchNilObserver},
	}
}

// benchMSHR churns a 32-entry MSHR at steady state: the clock advances a
// few cycles per op while each in-flight miss lives ~100 cycles, so the
// file hovers at capacity with continuous expiry, merge hits and misses,
// capacity checks, and inserts — the exact per-access sequence the
// frontends issue.
func benchMSHR(b *testing.B) {
	m := mem.NewMSHR(32)
	now := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 3
		block := uint64(i%64) * 64
		if _, merged := m.Lookup(block, now); merged {
			continue
		}
		if !m.Full(now) {
			m.Insert(block, now+100)
		}
	}
}

// benchFetchBlock walks the shared L2/L3/DRAM hierarchy over a working set
// exactly the size of the L2, mixing L2 hits, L3 hits, MSHR merges, and
// DRAM misses.
func benchFetchBlock(b *testing.B) {
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	ctx := cache.AccessContext{}
	now := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 2
		h.FetchBlock(uint64(i%8192)*64, now, ctx)
	}
}

// benchEngineFetch drives the shared frontend fetch engine — the single
// miss-path call site every L1-I design composes — through its demand
// protocol at steady state: Begin on every access, Hit on the ~3/4 the
// modelled array would serve, Miss (MSHR check + hierarchy walk + insert)
// on the rest. Like NilObserver, the steady state must stay at 0
// allocs/op; TestHotPathAllocGate enforces it.
func benchEngineFetch(b *testing.B) {
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	e := icache.NewEngine(8, 4, h)
	ctx := cache.AccessContext{}
	now := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 3
		block := uint64(i%512) * 64
		if _, merged := e.Begin(block, now); merged {
			continue
		}
		if i%4 != 0 {
			e.Hit()
			continue
		}
		e.Miss(block, icache.FullMiss, now, ctx)
	}
}

// benchDataCacheLoad drives the L1-D front of the hierarchy with a stream
// that overflows the 48KB array, mixing L1 hits with misses that walk the
// backing levels.
func benchDataCacheLoad(b *testing.B) {
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	d, err := mem.NewDataCache(mem.DefaultDataCacheConfig(), h)
	if err != nil {
		b.Fatal(err)
	}
	ctx := cache.AccessContext{}
	now := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 2
		d.Load(uint64(i%2048)*64, now, ctx)
	}
}

// benchUBSFetch exercises the UBS frontend fast path over a code footprint
// larger than the cache, so predictor hits, way hits, and misses (with the
// full install/distill machinery) all appear.
func benchUBSFetch(b *testing.B) {
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	u := ubs.MustNew(ubs.DefaultConfig(), h)
	// Warm the predictor and ways.
	for i := 0; i < 8192; i++ {
		u.Fetch(0x10000+uint64(i%4096)*16, 8, uint64(i*4))
	}
	now := uint64(8192 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 2
		u.Fetch(0x10000+uint64(i%4096)*16, 8, now)
	}
}

// benchSimInstr measures the full modelled system — UBS frontend, L1-D,
// shared hierarchy, FDIP front end, OoO core, with efficiency sampling on
// — at simInstrs instructions per op. The machine is constructed once and
// warmed to steady state outside the timer, so the number is the marginal
// cost of simulated instructions: exactly what billion-instruction sweeps
// and ubsd jobs pay. The steady-state loop must report 0 allocs/op
// (TestHotPathAllocGate): every pool — ROB, in-flight wheel, decode FIFO,
// FTQ, efficiency window — is pre-sized at construction.
func benchSimInstr(b *testing.B) {
	wcfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		b.Fatal(err)
	}
	src, err := workload.New(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	p := sim.DefaultParams()
	p.Warmup = 0
	m, err := sim.NewMachine(context.Background(), p, src, wcfg.Name, "ubs", sim.MustDesign("ubs").Factory)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Warmup(); err != nil {
		b.Fatal(err)
	}
	// Reach steady state before measuring: cold-start fills grow the
	// MSHR/cache side structures and the walker's call stack.
	if err := m.Advance(200_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Advance(simInstrs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNilObserver pins the observability subsystem's zero-cost contract:
// with no observer attached and sampling off, the steady-state Advance
// loop must report 0 allocs/op. TestHotPathAllocGate enforces it.
func benchNilObserver(b *testing.B) {
	wcfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		b.Fatal(err)
	}
	src, err := workload.New(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	p := sim.DefaultParams()
	p.Warmup = 0
	p.SampleInterval = 0
	m, err := sim.NewMachine(context.Background(), p, src, wcfg.Name, "ubs", sim.MustDesign("ubs").Factory)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Warmup(); err != nil {
		b.Fatal(err)
	}
	// Reach steady state before measuring: cold-start fills grow the
	// MSHR/cache side structures.
	if err := m.Advance(200_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Advance(obsInstrs); err != nil {
			b.Fatal(err)
		}
	}
}
