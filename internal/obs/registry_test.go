package obs

import (
	"reflect"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("hits"); again != c {
		t.Error("Counter did not return the existing instrument")
	}
	g := r.Gauge("ipc")
	g.Set(1.25)
	if g.Value() != 1.25 {
		t.Errorf("gauge = %v, want 1.25", g.Value())
	}
	g.Set(0.5)
	if g.Value() != 0.5 {
		t.Errorf("gauge after second Set = %v, want 0.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Hists) != 1 {
		t.Fatalf("hists = %d, want 1", len(s.Hists))
	}
	hs := s.Hists[0]
	// 0.5 and 1 land in le=1; 1.5 in le=2; 3 in le=4; 100 in +Inf.
	want := []uint64{2, 1, 1, 1}
	if !reflect.DeepEqual(hs.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", hs.Counts, want)
	}
	if hs.Count != 5 {
		t.Errorf("count = %d, want 5", hs.Count)
	}
	if hs.Sum != 0.5+1+1.5+3+100 {
		t.Errorf("sum = %v", hs.Sum)
	}
}

func TestSnapshotGetAndMap(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("c").Set(3)
	s := r.Snapshot()
	// Samples must be name-sorted for Get's binary search.
	for i := 1; i < len(s.Samples); i++ {
		if s.Samples[i-1].Name >= s.Samples[i].Name {
			t.Fatalf("samples not sorted: %v", s.Samples)
		}
	}
	if v, ok := s.Get("b"); !ok || v != 2 {
		t.Errorf("Get(b) = %v, %v", v, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("Get(nope) found a sample")
	}
	m := s.Map()
	if m["a"] != 1 || m["b"] != 2 || m["c"] != 3 {
		t.Errorf("Map = %v", m)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("misses")
	g := r.Gauge("ipc")
	h := r.Histogram("rolling", []float64{1})
	c.Add(10)
	g.Set(0.8)
	h.Observe(0.5)
	before := r.Snapshot()

	c.Add(5)
	g.Set(1.2)
	h.Observe(2)
	after := r.Snapshot()

	d := after.Delta(before)
	if v, _ := d.Get("misses"); v != 5 {
		t.Errorf("counter delta = %v, want 5", v)
	}
	// Gauges keep the latest value rather than subtracting.
	if v, _ := d.Get("ipc"); v != 1.2 {
		t.Errorf("gauge in delta = %v, want 1.2", v)
	}
	if len(d.Hists) != 1 {
		t.Fatalf("hists = %d", len(d.Hists))
	}
	hd := d.Hists[0]
	if !reflect.DeepEqual(hd.Counts, []uint64{0, 1}) {
		t.Errorf("hist delta counts = %v, want [0 1]", hd.Counts)
	}
	if hd.Count != 1 || hd.Sum != 2 {
		t.Errorf("hist delta count=%d sum=%v", hd.Count, hd.Sum)
	}
	// Delta must not mutate its inputs.
	if v, _ := after.Get("misses"); v != 15 {
		t.Errorf("after mutated: misses = %v", v)
	}
}

type InnerStats struct {
	RowHits uint64
}

type sourceStats struct {
	Fetches    uint64
	MSHRStalls uint64
	ByKind     [3]uint64
	Rate       float64
	Name       string // non-numeric: skipped
	InnerStats        // embedded: flattens into the parent prefix
	DRAM       InnerStats
	hidden     uint64 //nolint:unused // unexported: skipped
}

func TestSourceReflection(t *testing.T) {
	st := sourceStats{
		Fetches:    7,
		MSHRStalls: 2,
		ByKind:     [3]uint64{1, 2, 3},
		Rate:       0.5,
		Name:       "nope",
		InnerStats: InnerStats{RowHits: 9},
		DRAM:       InnerStats{RowHits: 4},
		hidden:     99,
	}
	r := NewRegistry()
	r.RegisterSource("l2", func() any { return st })
	m := r.Snapshot().Map()
	want := map[string]float64{
		"l2_fetches":       7,
		"l2_mshr_stalls":   2,
		"l2_by_kind_0":     1,
		"l2_by_kind_1":     2,
		"l2_by_kind_2":     3,
		"l2_rate":          0.5,
		"l2_row_hits":      9, // embedded struct flattened
		"l2_dram_row_hits": 4,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("source samples = %v, want %v", m, want)
	}

	// Pointer sources dereference; nil pointers emit nothing.
	r2 := NewRegistry()
	r2.RegisterSource("p", func() any { return &st })
	if v, ok := r2.Snapshot().Get("p_fetches"); !ok || v != 7 {
		t.Errorf("pointer source: %v %v", v, ok)
	}
	r3 := NewRegistry()
	r3.RegisterSource("n", func() any { return (*sourceStats)(nil) })
	if n := len(r3.Snapshot().Samples); n != 0 {
		t.Errorf("nil source emitted %d samples", n)
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Fetches":        "fetches",
		"ByKind":         "by_kind",
		"MSHRStalls":     "mshr_stalls",
		"PredictorHits":  "predictor_hits",
		"IPC":            "ipc",
		"L2":             "l2",
		"DecodeResteers": "decode_resteers",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestInstrumentsAllocFree pins the update half of the instruments to 0
// allocs per call: the serving layers and the runner bump counters,
// gauges and histograms per job and per point, so an allocation here
// would grow with traffic.
func TestInstrumentsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	g := r.Gauge("depth")
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	v := 0.0
	allocs := testing.AllocsPerRun(10_000, func() {
		c.Inc()
		c.Add(3)
		g.Set(v)
		h.Observe(v)
		v += 0.5
	})
	if allocs != 0 {
		t.Errorf("instrument updates allocate %.1f allocs/run, want 0", allocs)
	}
	if c.Value() != 4*10_001 {
		t.Errorf("counter = %d, want %d", c.Value(), 4*10_001)
	}
}
