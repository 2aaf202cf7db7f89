package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ubscache/internal/serve"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 500; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		v, pct, ok := tailPercentile(xs, 0.95)
		if n <= minBeyond {
			if ok {
				t.Fatalf("n=%d: got a tail from too few samples", n)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail, want at least %d", n, beyond, minBeyond)
		}
		if pct > 0.95 {
			t.Fatalf("n=%d: percentile %v above the 0.95 asked for", n, pct)
		}
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		value, pc float64
	}{
		{200, 190, 0.95}, // p95 itself leaves exactly ten beyond
		{400, 380, 0.95},
		{100, 90, 0.90}, // p95 would leave five: fall back to p90
		{20, 10, 0.50},
	} {
		v, pct, ok := tailPercentile(seq(c.n), 0.95)
		if !ok || v != c.value || pct != c.pc {
			t.Errorf("n=%d: got %v at p%v (ok=%v), want %v at p%v", c.n, v, pct, ok, c.value, c.pc)
		}
	}
}

func TestTrimmedMeanDropsTheOuterTenths(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -100}
	if got := trimmedMean(xs); got != 4.5 {
		t.Errorf("trimmed mean %v, want 4.5: the extremes must be dropped", got)
	}
	if got := trimmedMean([]float64{3}); got != 3 {
		t.Errorf("trimmed mean of one sample %v, want 3", got)
	}
	if got := trimmedMean(nil); got != 0 {
		t.Errorf("trimmed mean of no samples %v, want 0", got)
	}
}

func TestSpeedWindowWidensToEnoughPasses(t *testing.T) {
	s := &speedSampler{}
	t0 := time.Now()
	for i := 0; i < 100; i++ {
		s.at = append(s.at, t0.Add(time.Duration(i)*speedPeriod))
		s.samples = append(s.samples, float64(i))
	}
	// One pass in the window: it widens evenly until it holds enough.
	mid := t0.Add(50 * speedPeriod)
	if got := s.passNs(mid, mid); got != 50 {
		t.Errorf("widened window reads %v, want 50", got)
	}
	// A window that holds enough passes is read as it is.
	if got := s.passNs(t0, t0.Add(29*speedPeriod)); got != 14.5 {
		t.Errorf("window of passes 0..29 reads %v, want 14.5", got)
	}
}

func testParams(warmup, measure uint64) sim.Params {
	p := sim.DefaultParams()
	p.Warmup, p.Measure = warmup, measure
	return p
}

func TestWrappersAreTransparent(t *testing.T) {
	b := newBench(1, time.Second, true, t.TempDir())
	w := workloadspec.MustWorkload("server_001")
	p := testParams(5_000, 20_000)
	for _, d := range designs {
		ds := sim.MustDesign(d.shorthand)
		want, err := workloadspec.Run(context.Background(), p, w, ds.Name, ds.Factory)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := b.simulate(context.Background(), p, w, ds.Name, ds.Factory, simOpts{step: 3_000})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := b.simulate(context.Background(), p, w, ds.Name, ds.Factory, simOpts{step: 3_000, traced: true, record: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameJSON(plain.res, want) {
			t.Errorf("%s: stepped run differs from an uninterrupted one", d.key)
		}
		if !sameJSON(traced.res, want) {
			t.Errorf("%s: traced run differs from an untraced one", d.key)
		}
		if plain.kind != d.key || traced.kind != d.key {
			t.Errorf("%s: runs report kind %q and %q", d.key, plain.kind, traced.kind)
		}
		if l := traced.layers; l == nil || l.nextCalls == 0 || l.fetches == 0 || l.prefetches == 0 {
			t.Errorf("%s: the wrappers saw no calls: %+v", d.key, l)
		}
	}
}

func TestBPUReplayCallsMatchSimulatedBranches(t *testing.T) {
	b := newBench(1, time.Second, true, t.TempDir())
	w := workloadspec.MustWorkload("spec_001")
	// No warmup: the result's BPU counters then cover every prediction.
	p := testParams(0, 30_000)
	ds := sim.MustDesign("ubs")
	r, err := b.simulate(context.Background(), p, w, ds.Name, ds.Factory, simOpts{traced: true, record: true})
	if err != nil {
		t.Fatal(err)
	}
	brs := b.kept.branches
	if uint64(len(brs)) != r.res.BPU.Branches || r.layers.branches != r.res.BPU.Branches {
		t.Fatalf("replay has %d calls and the source counted %d branches; the simulation predicted %d",
			len(brs), r.layers.branches, r.res.BPU.Branches)
	}
	if _, st := replayBPU(p.BPU, brs); st != r.res.BPU {
		t.Fatalf("replayed BPU counters %+v, simulated %+v", st, r.res.BPU)
	}
}

func TestGenJobsIsSeededWithDistinctFreshRequests(t *testing.T) {
	a := genJobs(7, 30, 300)
	if len(a) != 300 {
		t.Fatalf("%d arrivals, want 300", len(a))
	}
	if !reflect.DeepEqual(a, genJobs(7, 30, 300)) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, genJobs(8, 30, 300)) {
		t.Fatal("two seeds gave one schedule")
	}
	fresh := map[serve.SubmitRequest]bool{}
	repeats := 0
	for i, r := range a {
		if i > 0 && r.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if r.repeat {
			repeats++
			if !fresh[r.body] {
				t.Fatalf("arrival %d repeats a request never made", i)
			}
			continue
		}
		if fresh[r.body] {
			t.Fatalf("fresh arrival %d duplicates an earlier request", i)
		}
		fresh[r.body] = true
	}
	if want := len(a) / repeatEvery; repeats != want {
		t.Fatalf("%d repeats in %d arrivals, want %d", repeats, len(a), want)
	}
}

// BENCHMARK.json at the repository root describes this benchmark; it
// must list exactly the workloads and metrics the program reports.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		section string
		got     []entry
		want    []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", c.section, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					c.section, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
