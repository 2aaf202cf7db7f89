package ubs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// stormConfig is one geometry the storm tests cover.
type stormConfig struct {
	name string
	cfg  Config
}

// stormConfigs lists the geometries the storms run on: the Table II
// default, every Figure 15 predictor organisation (direct-mapped,
// set-associative LRU and FIFO, fully associative), a 96-set cache whose
// set and predictor indexes take the non-power-of-two path, 2- and
// 1-byte offset granules, and the §VI-H congruence extensions.
func stormConfigs(tb testing.TB) []stormConfig {
	out := []stormConfig{{"default", DefaultConfig()}}
	for _, v := range PredictorVariants {
		c, err := WithPredictor(v.Name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, stormConfig{"pred-" + v.Name, c})
	}
	out = append(out, stormConfig{"sized-48", Sized(48)})
	for _, g := range []int{2, 1} {
		c := DefaultConfig()
		c.OffsetGranule = g
		out = append(out, stormConfig{fmt.Sprintf("granule-%d", g), c})
	}
	c := DefaultConfig()
	c.DeadBlockWays, c.AdmissionFilter = true, true
	return append(out, stormConfig{"congruence", c})
}

// stormSeeds are the 20 storms TestStormDigests runs on every geometry
// and FuzzFetchStorm seeds its corpus with.
func stormSeeds() (seeds []int64, ops []int) {
	for i := int64(0); i < 20; i++ {
		seeds = append(seeds, i*7_919+1)
		ops = append(ops, int(uint16(i*1_543))%3000+100)
	}
	return seeds, ops
}

// storm drives u with ops fetches and prefetches drawn from seed: spans
// of 1 to 32/g granules at granule-aligned addresses over a 32KB
// footprint, one in five a prefetch.
func storm(u *Cache, seed int64, ops int) {
	g := u.granule
	rng := rand.New(rand.NewSource(seed))
	now := uint64(0)
	for i := 0; i < ops; i++ {
		now += uint64(1 + rng.Intn(300))
		addr := 0x40000 + uint64(rng.Intn(32768/g)*g)
		size := g * (1 + rng.Intn(32/g))
		if int(addr&63)+size > 64 {
			size = 64 - int(addr&63)
		}
		if rng.Intn(5) == 0 {
			u.Prefetch(addr, size, now)
		} else {
			u.Fetch(addr, size, now)
		}
	}
}

// stormDigest hashes the behaviour-bearing state of u into h: every
// valid way's tag, extent, accessed mask, recency, reuse bit and
// signature; every valid predictor entry's tag, masks, order and
// prefetched flag; and the UBS counters. Each field is written as a
// fixed-width little-endian value, so the digest does not depend on the
// host's word size or on how the entries lay out in memory.
func stormDigest(h []byte, u *Cache) []byte {
	put := func(vs ...uint64) {
		for _, v := range vs {
			h = binary.LittleEndian.AppendUint64(h, v)
		}
	}
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for i := range u.st.Ways {
		if e := &u.st.Ways[i]; e.Valid {
			put(uint64(i), e.Tag, uint64(e.Start), uint64(e.Stored), e.Accessed, e.LRU, b(e.Reused), uint64(e.Sig))
		}
	}
	for i := range u.st.Pred.Entries {
		if e := &u.st.Pred.Entries[i]; e.Valid {
			put(uint64(i), e.Tag, e.Mask, e.PrefMask, e.Order, b(e.Prefetched))
		}
	}
	st := u.UBSStats()
	put(st.Fetches, st.Hits, st.Misses)
	put(st.ByKind[:]...)
	put(st.MSHRStalls, st.Prefetches, st.PrefetchDrops, st.PredictorHits, st.WayHits,
		st.Placements, st.DiscardedBlocks, st.SalvagedMoves, st.TrailingFills, st.AbsorbedRuns,
		st.Congruence.DeadVictims, st.Congruence.FilteredRuns, st.Congruence.ReuseTrainings,
		st.Congruence.DeadTrainings)
	return h
}

// stormDigests pins the state every geometry reaches after each of the
// 20 seeded storms: the SHA-256 of their stormDigest images in order.
var stormDigests = map[string]string{
	"default":          "69fe332c0bf310a8710031d9969c591f3d1fae63266e8672b2f0d76891b52657",
	"pred-direct-64":   "69fe332c0bf310a8710031d9969c591f3d1fae63266e8672b2f0d76891b52657",
	"pred-direct-128":  "4482e532d8f0a27d70d1c96d3ecc8771465040118bbca89416f1567268f199fe",
	"pred-assoc8-lru":  "53a42bd8d72c6ff3e39abe54db4869da7670e5d8e6cdfc4badd3eae5c7ca0f94",
	"pred-assoc8-fifo": "1ebf9c4a6a614d83aec6c4b80e5f23c3f54916f38f6c4562c836275ff1310079",
	"pred-full-fifo":   "9b57551496eb3538bb8be4f72005b9ac8df96ad1fdbcb10dfb2d02faa8b38cbf",
	"sized-48":         "213d87482df2db2dd5aef949401b7511ff6c3d3e76bebe2e2c12dd852c6e369a",
	"granule-2":        "b8ca1b9a634b6dbeb5555481fe86edcbd7d637542503180fe43f573d5897c3fd",
	"granule-1":        "87118d2db127b1b8742eb203203d4793c5f770bec68d7229b6f53f30b0227fda",
	"congruence":       "65010594bb88007c8d8b2e7902f8a0b03bbeaf9fd912e7a3ae037974cebd97bd",
}

// TestStormDigests pins UBS behaviour across the geometries the golden
// stats do not reach: a rewrite of the predictor or way paths must leave
// every storm's end state unchanged. On a mismatch it prints the digest
// to pin after a deliberate change to the model.
func TestStormDigests(t *testing.T) {
	seeds, ops := stormSeeds()
	for _, sc := range stormConfigs(t) {
		t.Run(sc.name, func(t *testing.T) {
			var img []byte
			for i, seed := range seeds {
				u := MustNew(sc.cfg, hier())
				storm(u, seed, ops[i])
				img = stormDigest(img, u)
			}
			sum := sha256.Sum256(img)
			if got := hex.EncodeToString(sum[:]); got != stormDigests[sc.name] {
				t.Errorf("storm state changed: got %s, want %s", got, stormDigests[sc.name])
			}
		})
	}
}

// fuzzConfig decodes a storm geometry from one fuzz byte. The predictor
// organisation (a Figure 15 variant, or one set per cache set), the offset
// granule (4, 2 or 1 bytes), the set count (64, or 96 to take the
// non-power-of-two index path) and the §VI-H extensions vary
// independently: 72 geometries.
func fuzzConfig(geom uint8) Config {
	g := int(geom)
	pred, gran, sized, congruence := g%6, g/6%3, g/18%2 == 1, g/36%2 == 1
	c := DefaultConfig()
	if sized {
		c = Sized(48)
	}
	if pred < len(PredictorVariants) {
		v := PredictorVariants[pred]
		c.PredictorSets, c.PredictorWays, c.PredictorFIFO = v.Sets, v.Ways, v.FIFO
	}
	c.OffsetGranule = [...]int{4, 2, 1}[gran]
	c.DeadBlockWays, c.AdmissionFilter = congruence, congruence
	return c
}

// FuzzFetchStorm: an arbitrary fetch/prefetch storm on any fuzzConfig
// geometry never violates the structural invariants, and block residency
// stays exclusive (predictor xor ways). A storm is ops (100..3099)
// accesses drawn from seed; the seed corpus, the 20 pinned storms spread
// over the geometries, runs with the package tests.
func FuzzFetchStorm(f *testing.F) {
	seeds, ops := stormSeeds()
	for i, seed := range seeds {
		f.Add(seed, uint16(ops[i]-100), uint8(i*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, opsRaw uint16, geom uint8) {
		cfg := fuzzConfig(geom)
		u := MustNew(cfg, hier())
		ops := int(opsRaw)%3000 + 100
		storm(u, seed, ops)
		if err := u.CheckInvariants(); err != nil {
			t.Fatalf("geometry %d (%+v), seed %d, %d ops: %v", geom, cfg, seed, ops, err)
		}
	})
}
