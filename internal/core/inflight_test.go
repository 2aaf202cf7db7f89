package core

import (
	"math/rand"
	"testing"

	"ubscache/internal/bpu"
	"ubscache/internal/fdip"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/snap"
	"ubscache/internal/trace"
)

// heapOracle is the completion min-heap the timing wheel replaced: the
// reference for which instructions are still in flight at each cycle.
type heapOracle struct {
	heap                 []ROBEntry
	sched, loads, stores int
}

func (h *heapOracle) add(e ROBEntry) {
	h.sched, h.loads, h.stores = h.sched+1, h.loads+b2i(e.IsLoad), h.stores+b2i(e.IsStore)
	h.heap = append(h.heap, e)
	for i := len(h.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if h.heap[p].Done <= h.heap[i].Done {
			break
		}
		h.heap[p], h.heap[i] = h.heap[i], h.heap[p]
		i = p
	}
}

func (h *heapOracle) expire(now uint64) {
	for len(h.heap) > 0 && h.heap[0].Done <= now {
		e := h.heap[0]
		h.sched, h.loads, h.stores = h.sched-1, h.loads-b2i(e.IsLoad), h.stores-b2i(e.IsStore)
		n := len(h.heap) - 1
		h.heap[0] = h.heap[n]
		h.heap = h.heap[:n]
		for i := 0; ; {
			l, r, s := 2*i+1, 2*i+2, i
			if l < n && h.heap[l].Done < h.heap[s].Done {
				s = l
			}
			if r < n && h.heap[r].Done < h.heap[s].Done {
				s = r
			}
			if s == i {
				break
			}
			h.heap[i], h.heap[s] = h.heap[s], h.heap[i]
			i = s
		}
	}
}

// TestInflightWheelMatchesHeap drives the wheel and the heap oracle with
// the same seeded add/expire sequence — completion distances from one
// cycle to 8·wheelSize, and occasional multi-cycle expire steps — and
// requires equal counters after every step.
func TestInflightWheelMatchesHeap(t *testing.T) {
	const robSize = 224
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := inflight{far: make([]ROBEntry, 0, robSize)}
		var h heapOracle
		check := func(step string, now uint64) {
			t.Helper()
			if w.sched != h.sched || w.loads != h.loads || w.stores != h.stores {
				t.Fatalf("seed %d, cycle %d, after %s: wheel %d/%d/%d, heap %d/%d/%d",
					seed, now, step, w.sched, w.loads, w.stores, h.sched, h.loads, h.stores)
			}
		}
		maxFar, jumps := 0, 0
		now := uint64(0)
		for cycle := 0; cycle < 50_000; cycle++ {
			if rng.Intn(256) == 0 {
				now += uint64(rng.Intn(3 * wheelSize))
				jumps++
			}
			w.expire(now)
			h.expire(now)
			check("expire", now)
			for k := rng.Intn(5); k > 0 && w.sched < robSize; k-- {
				var dist uint64
				switch r := rng.Intn(100); {
				case r < 80:
					dist = 1 + uint64(rng.Intn(300))
				case r < 90:
					dist = wheelSize - 3 + uint64(rng.Intn(6))
				default:
					dist = 1 + uint64(rng.Intn(8*wheelSize))
				}
				isLoad := rng.Intn(3) == 0
				isStore := !isLoad && rng.Intn(4) == 0
				e := ROBEntry{Done: now + dist, IsLoad: isLoad, IsStore: isStore}
				w.add(&e)
				h.add(e)
				check("add", now)
			}
			maxFar = max(maxFar, len(w.far))
			now++
		}
		if maxFar == 0 || jumps == 0 {
			t.Fatalf("seed %d never exercised the far list (max %d) or a multi-cycle expire (%d)", seed, maxFar, jumps)
		}
		if cap(w.far) != robSize {
			t.Errorf("seed %d: far grew to capacity %d, want %d", seed, cap(w.far), robSize)
		}
	}
}

// slowDRAMCore builds a core whose every DRAM access takes longer than
// the wheel's horizon, over a straight-line trace whose loads each touch
// a new block, so load completions land in the far list.
func slowDRAMCore(t *testing.T) *Core {
	t.Helper()
	hc := mem.DefaultHierarchyConfig()
	hc.DRAM.TCAS = wheelSize + 100
	h := mem.MustNewHierarchy(hc)
	ic, err := icache.NewConventional(icache.Baseline32K(), h)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := mem.NewDataCache(mem.DefaultDataCacheConfig(), h)
	if err != nil {
		t.Fatal(err)
	}
	ins := straight(4000)
	for i := range ins {
		if i%6 == 0 {
			ins[i].Class = trace.ClassLoad
			ins[i].MemAddr = 0x8000_0000 + uint64(i)*4096
		}
	}
	ftq := fdip.New(fdip.DefaultConfig(), trace.NewSlice(ins), bpu.New(bpu.Config{}), ic)
	return New(DefaultConfig(), ftq, ic, dc)
}

// TestFarPathValidatesEveryCycle runs a core whose completion distances
// exceed the wheel's horizon and checks the wheel against the ROB scan
// in Validate after every cycle.
func TestFarPathValidatesEveryCycle(t *testing.T) {
	c := slowDRAMCore(t)
	maxFar := 0
	for c.Stats().Instructions < 1500 {
		c.Cycle()
		if err := c.Validate(); err != nil {
			t.Fatalf("cycle %d: %v", c.Clock(), err)
		}
		maxFar = max(maxFar, len(c.busy.far))
	}
	if maxFar == 0 {
		t.Fatal("no completion ever fell beyond the wheel's horizon")
	}
}

// TestRestoreWithFarEntries checkpoints the core while the far list is
// non-empty, round-trips the image through the snap codec into a fresh
// core over the same front end and memory system, and requires the
// rebuilt wheel to match the live one and the resumed run to finish with
// the uninterrupted run's exact stats.
func TestRestoreWithFarEntries(t *testing.T) {
	const total = 3000
	ref := slowDRAMCore(t)
	ref.Run(total)
	want := ref.Stats()

	a := slowDRAMCore(t)
	for len(a.busy.far) < 2 {
		a.Cycle()
		if a.Stats().Instructions >= total {
			t.Fatal("far list never held two entries")
		}
	}
	var st State
	a.Snapshot(&st)
	data, err := snap.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	b := New(a.cfg, a.ftq, a.ic, a.dc)
	if err := b.RestoreInPlace(func(v any) error { return snap.Unmarshal(data, v) }); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.busy.slots != a.busy.slots || !sameEntries(b.busy.far, a.busy.far) ||
		b.busy.next != a.busy.next || b.busy.sched != a.busy.sched ||
		b.busy.loads != a.busy.loads || b.busy.stores != a.busy.stores {
		t.Fatal("rebuilt wheel differs from the live one")
	}
	b.Run(total - b.Stats().Instructions)
	if got := b.Stats(); got != want {
		t.Errorf("resumed run diverged:\n got  %+v\n want %+v", got, want)
	}
}

// sameEntries reports whether a and b hold the same entries in any order.
func sameEntries(a, b []ROBEntry) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[ROBEntry]int{}
	for _, e := range a {
		count[e]++
	}
	for _, e := range b {
		if count[e]--; count[e] < 0 {
			return false
		}
	}
	return true
}

// TestRestoreRejectsBadROBIndices pins that RestoreInPlace, which walks
// the live ROB window to rebuild the wheel, refuses an image whose head
// or count does not index into the ROB.
func TestRestoreRejectsBadROBIndices(t *testing.T) {
	c, _ := build(t, trace.NewSlice(straight(100)), false)
	var st State
	c.Snapshot(&st)
	for _, bad := range []struct{ head, count int }{{-1, 0}, {len(st.ROB), 0}, {0, -1}, {0, len(st.ROB) + 1}} {
		img := st
		img.ROBHead, img.ROBCount = bad.head, bad.count
		if err := restoreImage(c, &img); err == nil {
			t.Errorf("head %d, count %d accepted", bad.head, bad.count)
		}
	}
	if err := restoreImage(c, &st); err != nil {
		t.Errorf("pristine image rejected: %v", err)
	}
}

// restoreImage restores st into c through its snap encoding, as a
// checkpoint resume does.
func restoreImage(c *Core, st *State) error {
	data, err := snap.Marshal(st)
	if err != nil {
		return err
	}
	return c.RestoreInPlace(func(v any) error { return snap.Unmarshal(data, v) })
}
