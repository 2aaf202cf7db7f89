package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ubscache/internal/core"
	"ubscache/internal/icache"
	"ubscache/internal/workload"
)

// goldenPoint pins one design's full simulation outcome on the Table I
// baseline sweep setting.
type goldenPoint struct {
	Core   core.Stats
	ICache icache.Stats
}

// TestStatIdentityGolden pins zero behavioral drift across the fetch-engine
// refactor and the design registry: the golden values below were captured
// from the pre-refactor (seed) miss-path code on the server_0 preset, and
// every design — now constructed through the registry — must reproduce
// them exactly, down to the last counter. The full core.Stats is pinned,
// not only cycles and instructions: a wrong scheduler/LQ/SQ occupancy
// count first shows as dispatch gating, i.e. in the stall breakdown. A
// deliberate behavior change must re-capture these values and say so in
// its change description.
func TestStatIdentityGolden(t *testing.T) {
	wcfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Warmup = 20_000
	p.Measure = 100_000

	for _, g := range statGolden {
		g := g
		t.Run(g.Design, func(t *testing.T) {
			t.Parallel()
			d, err := ParseDesign(g.Design)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(p, wcfg, d.Name, d.Factory)
			if err != nil {
				t.Fatal(err)
			}
			if got := (goldenPoint{res.Core, res.ICache}); got != g.Want {
				t.Errorf("%s drifted from the seed behavior:\n got  %+v\n want %+v",
					d.Name, got, g.Want)
			}
		})
	}
}

// statGolden is TestStatIdentityGolden's table: each design's outcome on
// server_0, 20k warmup and 100k measured instructions.
var statGolden = []struct {
	Design string
	Want   goldenPoint
}{
	{"conv:32", goldenPoint{Core: core.Stats{Cycles: 330008, Instructions: 100002, Stalls: [6]uint64{0, 197371, 59349, 3684, 34239, 1391}, Delivered: 100073, Loads: 16681, Stores: 6625, Branches: 16941}, ICache: icache.Stats{Fetches: 36111, Hits: 33974, Misses: 2137, ByKind: [5]uint64{33974, 2137, 0, 0, 0}, MSHRStalls: 0, Prefetches: 3959, PrefetchDrops: 7597}}},
	{"conv:64", goldenPoint{Core: core.Stats{Cycles: 328123, Instructions: 100002, Stalls: [6]uint64{0, 188420, 63994, 3684, 36660, 1391}, Delivered: 100073, Loads: 16681, Stores: 6625, Branches: 16941}, ICache: icache.Stats{Fetches: 35475, Hits: 33974, Misses: 1501, ByKind: [5]uint64{33974, 1501, 0, 0, 0}, MSHRStalls: 0, Prefetches: 2850, PrefetchDrops: 4246}}},
	{"smallblock16", goldenPoint{Core: core.Stats{Cycles: 329440, Instructions: 100002, Stalls: [6]uint64{0, 193302, 62186, 3684, 34903, 1391}, Delivered: 100073, Loads: 16681, Stores: 6625, Branches: 16941}, ICache: icache.Stats{Fetches: 35817, Hits: 33974, Misses: 1827, ByKind: [5]uint64{33974, 1827, 0, 0, 0}, MSHRStalls: 16, Prefetches: 3312, PrefetchDrops: 5130}}},
	{"smallblock32", goldenPoint{Core: core.Stats{Cycles: 329677, Instructions: 100002, Stalls: [6]uint64{0, 195372, 60653, 3684, 34603, 1391}, Delivered: 100073, Loads: 16681, Stores: 6625, Branches: 16941}, ICache: icache.Stats{Fetches: 35966, Hits: 33974, Misses: 1988, ByKind: [5]uint64{33974, 1988, 0, 0, 0}, MSHRStalls: 4, Prefetches: 3671, PrefetchDrops: 6273}}},
	{"distill", goldenPoint{Core: core.Stats{Cycles: 330563, Instructions: 100002, Stalls: [6]uint64{0, 197377, 60426, 3684, 33711, 1391}, Delivered: 100073, Loads: 16683, Stores: 6628, Branches: 16946}, ICache: icache.Stats{Fetches: 36073, Hits: 33974, Misses: 2099, ByKind: [5]uint64{33974, 2099, 0, 0, 0}, MSHRStalls: 0, Prefetches: 5011, PrefetchDrops: 10082}}},
	{"ghrp", goldenPoint{Core: core.Stats{Cycles: 330087, Instructions: 100002, Stalls: [6]uint64{0, 197350, 59643, 3684, 34045, 1391}, Delivered: 100073, Loads: 16681, Stores: 6625, Branches: 16941}, ICache: icache.Stats{Fetches: 36131, Hits: 33974, Misses: 2157, ByKind: [5]uint64{33974, 2157, 0, 0, 0}, MSHRStalls: 0, Prefetches: 4038, PrefetchDrops: 7424}}},
	{"acic", goldenPoint{Core: core.Stats{Cycles: 330008, Instructions: 100002, Stalls: [6]uint64{0, 197371, 59349, 3684, 34239, 1391}, Delivered: 100073, Loads: 16681, Stores: 6625, Branches: 16941}, ICache: icache.Stats{Fetches: 36111, Hits: 33974, Misses: 2137, ByKind: [5]uint64{33974, 2137, 0, 0, 0}, MSHRStalls: 0, Prefetches: 3959, PrefetchDrops: 7597}}},
	{"ubs", goldenPoint{Core: core.Stats{Cycles: 329308, Instructions: 100002, Stalls: [6]uint64{0, 192686, 62078, 3684, 35495, 1391}, Delivered: 100073, Loads: 16681, Stores: 6625, Branches: 16941}, ICache: icache.Stats{Fetches: 36189, Hits: 33974, Misses: 1818, ByKind: [5]uint64{33974, 1748, 51, 19, 0}, MSHRStalls: 397, Prefetches: 3457, PrefetchDrops: 5167}}},
}

// goldenEpochs records, for each sim.ModelEpoch, the SHA-256 of
// statGolden's JSON encoding: the simulated behaviour that epoch names.
var goldenEpochs = map[int]string{
	1: "0f7d883347aaf8e36f9640fe7354c0deabb09a8a697f32904eff2ad198b15f73",
}

// TestGoldenEpoch ties the golden table to the model epoch. Re-capturing
// statGolden changes its digest; unless ModelEpoch is bumped in the same
// change, result caches keyed by the old epoch would keep serving
// results the model no longer computes.
func TestGoldenEpoch(t *testing.T) {
	data, err := json.Marshal(statGolden)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if want, ok := goldenEpochs[ModelEpoch]; !ok || got != want {
		t.Fatalf("golden table digest %s does not match epoch %d's recorded %q: the golden stats changed, so the model's behaviour did; bump sim.ModelEpoch and add the entry %d: %q to goldenEpochs",
			got, ModelEpoch, want, ModelEpoch+1, got)
	}
}
