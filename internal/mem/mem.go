// Package mem provides the timing side of the memory system: MSHR files,
// a DRAM bank/row-buffer model, and the L2/L3/DRAM hierarchy walk used by
// both the instruction and data sides.
//
// Timing follows the functional-latency model described in DESIGN.md §5: a
// miss issued at cycle t completes at t plus the sum of the latencies of
// the levels it traverses; outstanding misses to the same block merge in
// the MSHR of the level where they meet. Cache contents are updated at
// request time (fills applied early), a standard trace-driven
// simplification.
package mem

import (
	"fmt"

	"ubscache/internal/cache"
)

// MSHR is a miss status holding register file: a bounded set of
// outstanding block misses with their completion times.
//
// Entries live in a fixed-capacity binary min-heap keyed by completion
// time, so expiry pops only the entries that have actually completed —
// amortized O(1) per access (each entry is pushed and popped exactly once)
// with an O(1) "nothing has completed" fast path — and the steady state
// allocates nothing: the backing array is sized once at construction.
// Block lookups scan the live entries linearly; MSHR files are small
// (8–64 entries, Table I), so the scan is a handful of contiguous cache
// lines and beats any map by a wide margin.
type MSHR struct {
	cap int
	MSHRState
}

// NewMSHR returns an MSHR file with capacity entries.
func NewMSHR(capacity int) *MSHR {
	if capacity < 1 {
		panic(fmt.Sprintf("mem: bad MSHR capacity %d", capacity))
	}
	return &MSHR{cap: capacity, MSHRState: MSHRState{Entries: make([]MSHREntry, 0, capacity)}}
}

// Cap returns the capacity.
func (m *MSHR) Cap() int { return m.cap }

// InFlight returns the number of live entries at cycle now.
func (m *MSHR) InFlight(now uint64) int {
	m.expire(now)
	return len(m.Entries)
}

// expire drops entries whose miss has completed (done <= now).
func (m *MSHR) expire(now uint64) {
	for len(m.Entries) > 0 && m.Entries[0].Done <= now {
		n := len(m.Entries) - 1
		m.Entries[0] = m.Entries[n]
		m.Entries = m.Entries[:n]
		m.siftDown(0)
	}
}

func (m *MSHR) siftDown(i int) {
	n := len(m.Entries)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && m.Entries[r].Done < m.Entries[c].Done {
			c = r
		}
		if m.Entries[i].Done <= m.Entries[c].Done {
			return
		}
		m.Entries[i], m.Entries[c] = m.Entries[c], m.Entries[i]
		i = c
	}
}

func (m *MSHR) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if m.Entries[p].Done <= m.Entries[i].Done {
			return
		}
		m.Entries[i], m.Entries[p] = m.Entries[p], m.Entries[i]
		i = p
	}
}

// find returns the index of the live entry for block, or -1.
func (m *MSHR) find(block uint64) int {
	for i := range m.Entries {
		if m.Entries[i].Block == block {
			return i
		}
	}
	return -1
}

// Lookup returns the completion time of an outstanding miss for block, if
// any. A successful lookup is a merge.
func (m *MSHR) Lookup(block, now uint64) (done uint64, ok bool) {
	m.expire(now)
	if i := m.find(block); i >= 0 {
		m.Merges++
		return m.Entries[i].Done, true
	}
	return 0, false
}

// Peek is Lookup without the merge accounting: probe phases use it to test
// for an outstanding miss without committing to the merge.
func (m *MSHR) Peek(block, now uint64) (done uint64, ok bool) {
	m.expire(now)
	if i := m.find(block); i >= 0 {
		return m.Entries[i].Done, true
	}
	return 0, false
}

// Full reports whether a new allocation would exceed capacity at cycle
// now. It is a pure capacity query; callers that abort because of it must
// record the stall with RecordFullStall.
func (m *MSHR) Full(now uint64) bool {
	m.expire(now)
	return len(m.Entries) >= m.cap
}

// RecordFullStall counts one aborted demand allocation. Callers invoke it
// when — and only when — a full MSHR actually forces them to abort and
// retry, so FullStall equals the retry count rather than the number of
// speculative capacity probes.
func (m *MSHR) RecordFullStall() { m.FullStall++ }

// Insert allocates an entry; the caller must have checked Full. Each block
// may have at most one live entry (callers merge via Lookup first).
func (m *MSHR) Insert(block, done uint64) {
	if len(m.Entries) >= m.cap {
		panic("mem: MSHR overflow (caller did not check Full)")
	}
	// NewMSHR preallocated the backing array at capacity.
	m.Entries = append(m.Entries, MSHREntry{Done: done, Block: block})
	m.siftUp(len(m.Entries) - 1)
	m.Allocs++
}

// DRAMConfig holds the Table I DRAM parameters converted to core cycles.
// At the paper's 3200MT/s with tRP=tRCD=tCAS=12.5ns and a 4GHz core, each
// timing component is 50 core cycles.
type DRAMConfig struct {
	Banks      int
	RowBits    uint   // log2 of the row size in bytes
	TRP        uint64 // precharge, core cycles
	TRCD       uint64 // activate
	TCAS       uint64 // column access
	Controller uint64 // fixed queue/controller overhead
	BusCycles  uint64 // data burst occupancy per access
}

// DefaultDRAMConfig mirrors Table I at a 4GHz core clock.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Banks:      8,
		RowBits:    13, // 8KB rows
		TRP:        50,
		TRCD:       50,
		TCAS:       50,
		Controller: 20,
		BusCycles:  4,
	}
}

// DRAM models one rank of banked DRAM with open-row policy.
type DRAM struct {
	cfg DRAMConfig
	// bankMask selects the bank without a hardware divide when Banks is a
	// power of two; bankPow2 gates the fast path.
	bankMask uint64
	bankPow2 bool
	DRAMState
}

// NewDRAM constructs a DRAM model; zero config fields take defaults.
func NewDRAM(cfg DRAMConfig) *DRAM {
	def := DefaultDRAMConfig()
	if cfg.Banks == 0 {
		cfg = def
	}
	d := &DRAM{cfg: cfg, DRAMState: DRAMState{
		Rows: make([]uint64, cfg.Banks),
		Busy: make([]uint64, cfg.Banks),
	}}
	if cfg.Banks&(cfg.Banks-1) == 0 {
		d.bankPow2 = true
		d.bankMask = uint64(cfg.Banks - 1)
	}
	return d
}

// Access issues a block read at cycle now and returns its completion time.
func (d *DRAM) Access(addr, now uint64) uint64 {
	d.Accesses++
	var bank int
	if d.bankPow2 {
		bank = int((addr >> 6) & d.bankMask)
	} else {
		bank = int((addr >> 6) % uint64(d.cfg.Banks))
	}
	row := addr>>d.cfg.RowBits + 1
	start := now + d.cfg.Controller
	if b := d.Busy[bank]; b > start {
		start = b
	}
	var lat uint64
	if d.Rows[bank] == row {
		d.RowHits++
		lat = d.cfg.TCAS
	} else {
		d.RowMisses++
		if d.Rows[bank] != 0 {
			lat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
		} else {
			lat = d.cfg.TRCD + d.cfg.TCAS
		}
		d.Rows[bank] = row
	}
	done := start + lat
	d.Busy[bank] = done + d.cfg.BusCycles
	return done
}

// Level couples a cache array with its latency and MSHR file.
type Level struct {
	Cache *cache.Cache
	Lat   uint64
	MSHR  *MSHR
}

// Hierarchy is the shared L2 → L3 → DRAM path below the private L1s.
type Hierarchy struct {
	L2, L3 *Level
	DRAM   *DRAM
}

// HierarchyConfig sizes the shared levels (Table I defaults via
// DefaultHierarchyConfig).
type HierarchyConfig struct {
	L2Sets, L2Ways int
	L2Lat          uint64
	L2MSHRs        int
	L3Sets, L3Ways int
	L3Lat          uint64
	L3MSHRs        int
	BlockSize      int
	DRAM           DRAMConfig
}

// DefaultHierarchyConfig mirrors Table I: 512KB 8-way L2 (12 cycles,
// 32 MSHRs) and 2MB 16-way L3 (30 cycles, 64 MSHRs), 64B blocks.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L2Sets: 1024, L2Ways: 8, L2Lat: 12, L2MSHRs: 32,
		L3Sets: 2048, L3Ways: 16, L3Lat: 30, L3MSHRs: 64,
		BlockSize: 64,
		DRAM:      DefaultDRAMConfig(),
	}
}

// NewHierarchy builds the shared levels.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.BlockSize == 0 {
		cfg = DefaultHierarchyConfig()
	}
	l2, err := cache.New(cache.Config{
		Name: "L2", Sets: cfg.L2Sets, Ways: cfg.L2Ways, BlockSize: cfg.BlockSize,
	})
	if err != nil {
		return nil, err
	}
	l3, err := cache.New(cache.Config{
		Name: "L3", Sets: cfg.L3Sets, Ways: cfg.L3Ways, BlockSize: cfg.BlockSize,
	})
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		L2:   &Level{Cache: l2, Lat: cfg.L2Lat, MSHR: NewMSHR(cfg.L2MSHRs)},
		L3:   &Level{Cache: l3, Lat: cfg.L3Lat, MSHR: NewMSHR(cfg.L3MSHRs)},
		DRAM: NewDRAM(cfg.DRAM),
	}, nil
}

// MissHorizon bounds how long an L2 miss takes to return: the L2, L3
// and DRAM latencies plus a wait behind every other outstanding L3 miss
// in the same DRAM bank (each DRAM access holds an L3 MSHR).
func (h *Hierarchy) MissHorizon() uint64 {
	d := h.DRAM.cfg
	access := d.TRP + d.TRCD + d.TCAS + d.BusCycles
	return 2*h.L2.Lat + h.L3.Lat + d.Controller + uint64(h.L3.MSHR.Cap()+1)*access
}

// MustNewHierarchy panics on configuration errors.
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// FetchBlock services an L1 miss for the block containing addr at cycle
// now. It returns the completion cycle at which the block arrives at the
// L1, or ok=false when an MSHR downstream is full and the request must be
// retried. Fills of L2/L3 are applied immediately (early-fill model).
//
// The walk is probe-then-commit: a read-only probe phase first decides
// whether the request can complete at all, and only then does the commit
// phase touch counters, replacement state, MSHR merges, and fills. An
// aborted (ok=false) request therefore leaves the hierarchy byte-identical
// to before the call — its retry next cycle does not double-count L2/L3
// accesses or misses — except for the one FullStall recorded on the MSHR
// that forced the abort.
func (h *Hierarchy) FetchBlock(addr, now uint64, ctx cache.AccessContext) (complete uint64, ok bool) {
	block := h.L2.Cache.BlockAddr(addr)

	// Probe phase: no counters, no LRU, no merges. The L3 probe only runs
	// when the walk would actually reach the L3 (L2 miss, no L2 merge),
	// which is exactly when the commit phase needs its result.
	l2Set, l2Way, l2Hit := h.L2.Cache.Probe(block)
	var l3Set, l3Way int
	var l3Hit bool
	if !l2Hit {
		if _, merged := h.L2.MSHR.Peek(block, now); !merged {
			if h.L2.MSHR.Full(now) {
				h.L2.MSHR.RecordFullStall()
				return 0, false
			}
			l3Set, l3Way, l3Hit = h.L3.Cache.Probe(block)
			if !l3Hit {
				if _, merged := h.L3.MSHR.Peek(block, now); !merged {
					if h.L3.MSHR.Full(now) {
						h.L3.MSHR.RecordFullStall()
						return 0, false
					}
				}
			}
		}
	}

	// Commit phase: the request is guaranteed to complete; replay the walk
	// with full accounting, reusing the probe results (no cycle passes
	// between probe and commit, so they still hold).
	if h.L2.Cache.AccessAt(l2Set, l2Way, l2Hit, block, h.L2.Cache.BlockSize(), ctx) {
		return now + h.L2.Lat, true
	}
	if done, merged := h.L2.MSHR.Lookup(block, now); merged {
		return done, true
	}
	var fillDone uint64
	if h.L3.Cache.AccessAt(l3Set, l3Way, l3Hit, block, h.L3.Cache.BlockSize(), ctx) {
		fillDone = now + h.L2.Lat + h.L3.Lat
	} else if done, merged := h.L3.MSHR.Lookup(block, now); merged {
		fillDone = done + h.L2.Lat
	} else {
		dramDone := h.DRAM.Access(block, now+h.L2.Lat+h.L3.Lat)
		h.L3.MSHR.Insert(block, dramDone)
		h.L3.Cache.FillAt(l3Set, block, ctx)
		fillDone = dramDone + h.L2.Lat // return trip accounted coarsely
	}
	h.L2.MSHR.Insert(block, fillDone)
	h.L2.Cache.FillAt(l2Set, block, ctx)
	return fillDone, true
}

// DataCache is the private L1-D frontend: a cache array composed with the
// shared fetch engine in front of the hierarchy. The exported fields view
// the engine's parts (observability gauges read MSHR directly).
type DataCache struct {
	C    *cache.Cache
	Lat  uint64
	MSHR *MSHR
	H    *Hierarchy

	eng *FetchEngine
}

// DataCacheConfig sizes the L1-D; Table I: 48KB 12-way, 5 cycles, 16 MSHRs.
type DataCacheConfig struct {
	Sets, Ways int
	Lat        uint64
	MSHRs      int
	BlockSize  int
}

// DefaultDataCacheConfig mirrors Table I.
func DefaultDataCacheConfig() DataCacheConfig {
	return DataCacheConfig{Sets: 64, Ways: 12, Lat: 5, MSHRs: 16, BlockSize: 64}
}

// NewDataCache builds an L1-D over hierarchy h.
func NewDataCache(cfg DataCacheConfig, h *Hierarchy) (*DataCache, error) {
	if cfg.Sets == 0 {
		cfg = DefaultDataCacheConfig()
	}
	c, err := cache.New(cache.Config{
		Name: "L1D", Sets: cfg.Sets, Ways: cfg.Ways, BlockSize: cfg.BlockSize,
	})
	if err != nil {
		return nil, err
	}
	eng := NewFetchEngine(cfg.MSHRs, cfg.Lat, h)
	return &DataCache{C: c, Lat: cfg.Lat, MSHR: eng.File(), H: h, eng: eng}, nil
}

// Load issues a load at cycle now; it returns the data-ready cycle, or
// ok=false when the access must retry (L1-D or downstream MSHRs full).
func (d *DataCache) Load(addr, now uint64, ctx cache.AccessContext) (complete uint64, ok bool) {
	set, way, hit := d.C.Probe(addr)
	if d.C.AccessAt(set, way, hit, addr, 1, ctx) {
		return now + d.Lat, true
	}
	block := d.C.BlockAddr(addr)
	if done, merged := d.eng.Pending(block, now); merged {
		return done, true
	}
	fill, st := d.eng.Issue(block, now, ctx, true)
	if st.Stalled() {
		return 0, false
	}
	way, _ = d.C.FillAt(set, block, ctx)
	d.C.MarkAccessedAt(set, way, addr, 1)
	return fill, true
}

// Store issues a store at cycle now. Stores retire without stalling the
// pipeline (the store queue hides their latency); misses write-allocate.
// ok=false reports MSHR backpressure.
func (d *DataCache) Store(addr, now uint64, ctx cache.AccessContext) (ok bool) {
	set, way, hit := d.C.Probe(addr)
	if d.C.AccessAt(set, way, hit, addr, 1, ctx) {
		d.C.SetDirtyAt(set, way)
		return true
	}
	block := d.C.BlockAddr(addr)
	if _, merged := d.eng.Pending(block, now); merged {
		return true
	}
	if _, st := d.eng.Issue(block, now, ctx, true); st.Stalled() {
		return false
	}
	way, _ = d.C.FillAt(set, block, ctx)
	d.C.MarkAccessedAt(set, way, addr, 1)
	d.C.SetDirtyAt(set, way)
	return true
}
