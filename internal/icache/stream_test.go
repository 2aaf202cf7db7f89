package icache

import (
	"bytes"
	"runtime"
	"testing"

	"ubscache/internal/cache"
	"ubscache/internal/mem"
	"ubscache/internal/testutil"
	"ubscache/internal/workload"
)

// fetchRange is one fetch: up to 32 sequential bytes within a 64B block.
type fetchRange struct {
	addr uint64
	size int
}

// serverFetches returns the first n fetch ranges of server_001's
// committed path: runs of sequential instructions, cut at a taken
// branch, a 64B block boundary or 32 bytes.
func serverFetches(tb testing.TB, n int) []fetchRange {
	tb.Helper()
	cfg, err := workload.ByName("server_001")
	if err != nil {
		tb.Fatal(err)
	}
	w, err := workload.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]fetchRange, 0, n)
	var cur fetchRange
	for len(out) < n {
		in, _ := w.Next()
		end := cur.addr + uint64(cur.size)
		if cur.size > 0 && in.PC == end && (in.EndPC()-1)&^63 == cur.addr&^63 && cur.size+int(in.Size) <= 32 {
			cur.size += int(in.Size)
			continue
		}
		if cur.size > 0 {
			out = append(out, cur)
		}
		cur = fetchRange{in.PC, int(in.Size)}
	}
	return out
}

// prefetchLead is how many fetch ranges ahead of demand the streams'
// prefetches run, as FDIP's runahead would issue them.
const prefetchLead = 8

// frontendKinds builds each L1-I design BenchmarkFrontend times.
var frontendKinds = []struct {
	name string
	new  func(*mem.Hierarchy) (Frontend, error)
}{
	{"conv", func(h *mem.Hierarchy) (Frontend, error) { return NewConventional(Baseline32K(), h) }},
	{"smallblock", func(h *mem.Hierarchy) (Frontend, error) { return NewSmallBlock(SmallBlock16(), h) }},
	{"distill", func(h *mem.Hierarchy) (Frontend, error) { return NewDistill(DefaultDistill(), h) }},
}

// frontendOp returns one op of a steady Fetch+Prefetch stream over a
// server_001 fetch trace on fe: a prefetch prefetchLead ranges ahead,
// then the demand fetch, two cycles apart. The trace is replayed once
// before the op is returned. TestFrontendAllocFree gates the stream
// BenchmarkFrontend times.
func frontendOp(fe Frontend, stream []fetchRange) func() {
	now, i := uint64(0), 0
	op := func() {
		now += 2
		p, f := stream[(i+prefetchLead)%len(stream)], stream[i%len(stream)]
		fe.Prefetch(p.addr, p.size, now)
		fe.Fetch(f.addr, f.size, now)
		i++
	}
	for range stream {
		op()
	}
	return op
}

// TestFrontendAllocFree pins each L1-I design's Fetch+Prefetch stream
// to 0 allocs/op. AllocsPerRun rounds down per run, so a run is 100 ops.
func TestFrontendAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	stream := serverFetches(t, 20_000)
	for _, k := range frontendKinds {
		t.Run(k.name, func(t *testing.T) {
			fe, err := k.new(hier())
			if err != nil {
				t.Fatal(err)
			}
			op := frontendOp(fe, stream)
			runtime.GC() // a GC ending inside the window counts the runtime's own allocations
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 100; i++ {
					op()
				}
			})
			if allocs != 0 {
				t.Errorf("%s Fetch+Prefetch allocates %.0f objects per 100 ops, want 0", k.name, allocs)
			}
		})
	}
}

// BenchmarkFrontend times one Fetch+Prefetch op of each L1-I design on
// the stream TestFrontendAllocFree gates: the L1-I layer's own number.
func BenchmarkFrontend(b *testing.B) {
	stream := serverFetches(b, 20_000)
	for _, k := range frontendKinds {
		b.Run(k.name, func(b *testing.B) {
			fe, err := k.new(hier())
			if err != nil {
				b.Fatal(err)
			}
			op := frontendOp(fe, stream)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// refSmallBlockFetch is SmallBlock.Fetch done by address throughout:
// every chunk is probed again for its accessed-units mark and again for
// its hit accounting, as the hit path did before it kept each chunk's
// (set, way).
func refSmallBlockFetch(sb *SmallBlock, addr uint64, size int, now uint64) Result {
	ctx := cache.AccessContext{PC: addr, Cycle: now}
	block64 := addr &^ 63
	if r, merged := sb.Begin(block64, now); merged {
		return r
	}
	missing := false
	for _, ch := range sb.chunks(addr, size) {
		if _, _, hit := sb.c.Probe(ch); !hit {
			if sb.buffer.contains(block64) {
				sb.c.Fill(ch, ctx)
				continue
			}
			missing = true
		}
	}
	if !missing {
		sb.markRange(addr, size)
		for _, ch := range sb.chunks(addr, size) {
			set, way, hit := sb.c.Probe(ch)
			sb.c.AccessAt(set, way, hit, ch, 1, ctx)
		}
		return sb.Hit()
	}
	r := sb.Miss(block64, FullMiss, now, ctx)
	if !r.Issued {
		return r
	}
	sb.buffer.insert(block64, sb.cfg.BufferCap)
	for _, ch := range sb.chunks(addr, size) {
		sb.c.Fill(ch, ctx)
	}
	sb.markRange(addr, size)
	return r
}

// TestDifferentialSmallBlockHitPath drives 16B and 32B small-block
// frontends and a by-address reference (refSmallBlockFetch) with one
// server_001 Fetch+Prefetch stream. Results, counters and the whole
// checkpointable state must agree. The shared-set configurations have
// fewer sets than chunks per 64B block, so a fill in Fetch's probe loop
// can evict a chunk probed earlier in the same fetch.
func TestDifferentialSmallBlockHitPath(t *testing.T) {
	shared16, shared32 := SmallBlock16(), SmallBlock32()
	shared16.Name, shared16.Sets, shared16.Ways = "16B-2x4", 2, 4
	shared32.Name, shared32.Sets, shared32.Ways = "32B-1x2", 1, 2
	stream := serverFetches(t, 30_000)
	for _, cfg := range []SmallBlockConfig{SmallBlock16(), SmallBlock32(), shared16, shared32} {
		t.Run(cfg.Name, func(t *testing.T) {
			got, err := NewSmallBlock(cfg, hier())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSmallBlock(cfg, hier())
			if err != nil {
				t.Fatal(err)
			}
			if want := cfg.Sets < 64/cfg.BlockSize; got.sharedSets != want {
				t.Fatalf("sharedSets = %v, want %v", got.sharedSets, want)
			}
			now := uint64(0)
			for i, f := range stream {
				now += 2
				p := stream[(i+prefetchLead)%len(stream)]
				got.Prefetch(p.addr, p.size, now)
				ref.Prefetch(p.addr, p.size, now)
				if rg, rr := got.Fetch(f.addr, f.size, now), refSmallBlockFetch(ref, f.addr, f.size, now); rg != rr {
					t.Fatalf("fetch %d [%#x,+%d): %+v, reference %+v", i, f.addr, f.size, rg, rr)
				}
				if i%4096 == 0 || i == len(stream)-1 {
					gs, err := got.SnapshotState()
					if err != nil {
						t.Fatal(err)
					}
					rs, err := ref.SnapshotState()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gs, rs) {
						t.Fatalf("fetch %d: state diverged from the reference", i)
					}
				}
			}
			if st := got.Stats(); st.Hits == 0 || st.Misses == 0 || got.Cache().Stats().Evictions == 0 {
				t.Fatalf("degenerate stream: %+v", st)
			}
		})
	}
}
