package sim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"ubscache/internal/bpu"
	"ubscache/internal/icache"
	"ubscache/internal/trace"
	"ubscache/internal/ubs"
	"ubscache/internal/workload"
)

// The registry's default conventional and UBS designs (Baseline32K and
// the Table II configuration).
var (
	convFactory = mustFactory(NewConvDesign(ConvDesign{}))
	ubsFactory  = mustFactory(NewUBSDesign(UBSDesign{}))
)

func mustFactory(d Design, err error) FrontendFactory {
	if err != nil {
		panic(err)
	}
	return d.Factory
}

func tinyParams() Params {
	p := DefaultParams()
	p.Warmup = 30_000
	p.Measure = 100_000
	return p
}

func specCfg(t *testing.T) workload.Config {
	t.Helper()
	cfg, err := workload.Preset(workload.FamilySPEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Warmup == 0 || p.Measure == 0 || p.SampleInterval != 100_000 {
		t.Errorf("defaults: %+v", p)
	}
	if !p.DataCache {
		t.Error("data cache disabled by default")
	}
}

func TestRunConventional(t *testing.T) {
	res, err := Run(tinyParams(), specCfg(t), "conv", convFactory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != "conv" || res.Workload != "spec_001" {
		t.Errorf("labels: %+v", res)
	}
	if res.Core.Instructions < 100_000 {
		t.Errorf("retired %d", res.Core.Instructions)
	}
	if res.IPC() <= 0 || res.IPC() > 4 {
		t.Errorf("IPC %f", res.IPC())
	}
	if res.UBS != nil {
		t.Error("conventional run carries UBS stats")
	}
	if res.BPU.Branches == 0 {
		t.Error("no branch statistics")
	}
}

// TestRunUBSCarriesExtendedStats checks that a UBS run reports its
// extended counters over the same measured window as Result.ICache: the
// embedded common stats are identical, and every demand hit is served by
// exactly one of the predictor and the ways.
func TestRunUBSCarriesExtendedStats(t *testing.T) {
	server, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, wcfg := range []workload.Config{specCfg(t), server} {
		for _, name := range ubsDesigns {
			d, err := ParseDesign(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(tinyParams(), wcfg, d.Name, d.Factory)
			if err != nil {
				t.Fatal(err)
			}
			if res.UBS == nil {
				t.Fatalf("%s on %s: UBS stats missing", d.Name, wcfg.Name)
			}
			if res.UBS.Stats != res.ICache {
				t.Errorf("%s on %s: UBS common stats %+v != ICache %+v", d.Name, wcfg.Name, res.UBS.Stats, res.ICache)
			}
			if hits := res.UBS.PredictorHits + res.UBS.WayHits; hits != res.ICache.Hits || hits == 0 {
				t.Errorf("%s on %s: predictor+way hits = %d, ICache.Hits = %d", d.Name, wcfg.Name, hits, res.ICache.Hits)
			}
		}
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	// Measured icache stats must exclude warmup: a run with warmup must
	// report fewer fetches than warmup+measure would produce.
	p := tinyParams()
	resWarm, err := Run(p, specCfg(t), "conv", convFactory)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.Warmup = 0
	p2.Measure = p.Warmup + p.Measure
	resAll, err := Run(p2, specCfg(t), "conv", convFactory)
	if err != nil {
		t.Fatal(err)
	}
	if resWarm.ICache.Fetches >= resAll.ICache.Fetches {
		t.Errorf("warmup not excluded: %d vs %d fetches",
			resWarm.ICache.Fetches, resAll.ICache.Fetches)
	}
	// Warmed run must not have cold-start misses dominating.
	if resWarm.MPKI() > resAll.MPKI() {
		t.Errorf("warmed MPKI %.2f above cold MPKI %.2f", resWarm.MPKI(), resAll.MPKI())
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(tinyParams(), specCfg(t), "ubs", ubsFactory)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyParams(), specCfg(t), "ubs", ubsFactory)
	if err != nil {
		t.Fatal(err)
	}
	if a.Core.Cycles != b.Core.Cycles || a.ICache.Misses != b.ICache.Misses ||
		a.BPU.Mispredictions != b.BPU.Mispredictions {
		t.Errorf("runs differ: %+v vs %+v", a.Core, b.Core)
	}
}

func TestEfficiencySampling(t *testing.T) {
	p := tinyParams()
	p.SampleInterval = 10_000
	res, err := Run(p, specCfg(t), "conv", convFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EffSamples) < 5 {
		t.Fatalf("only %d efficiency samples", len(res.EffSamples))
	}
	for _, e := range res.EffSamples {
		if e < 0 || e > 1 {
			t.Fatalf("sample %f out of range", e)
		}
	}
	// Disabled sampling yields none.
	p.SampleInterval = 0
	res, err = Run(p, specCfg(t), "conv", convFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EffSamples) != 0 {
		t.Error("samples collected with sampling disabled")
	}
}

func TestTraceEndsDuringWarmup(t *testing.T) {
	short := trace.NewSlice(trace.Collect(mustWalker(t), 1000))
	_, err := RunSource(tinyParams(), short, "short", "conv",
		convFactory)
	if err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Errorf("expected warmup error, got %v", err)
	}
}

func TestTraceEndsDuringMeasurement(t *testing.T) {
	short := trace.NewSlice(trace.Collect(mustWalker(t), 50_000))
	p := tinyParams()
	p.Warmup = 10_000
	p.Measure = 1_000_000
	_, err := RunSource(p, short, "short", "conv", convFactory)
	if err == nil || !strings.Contains(err.Error(), "measurement") {
		t.Errorf("expected measurement error, got %v", err)
	}
}

func mustWalker(t *testing.T) trace.Source {
	t.Helper()
	w, err := workload.New(specCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAllFactoriesBuild(t *testing.T) {
	factories := map[string]FrontendFactory{
		"conv":       convFactory,
		"ubs":        ubsFactory,
		"smallblock": mustFactory(NewSmallBlockDesign(SmallBlockDesign{})),
		"distill":    mustFactory(NewDistillDesign(DistillDesign{})),
	}
	p := tinyParams()
	p.Warmup = 5_000
	p.Measure = 20_000
	for name, f := range factories {
		if _, err := Run(p, specCfg(t), name, f); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBadFactoryConfigRejected(t *testing.T) {
	if _, err := NewUBSDesign(UBSDesign{Custom: &ubs.Config{}}); err == nil {
		t.Error("invalid UBS config accepted") // zero config is invalid
	}
	badSB := mustFactory(NewSmallBlockDesign(SmallBlockDesign{Custom: &icache.SmallBlockConfig{BlockSize: 24}}))
	if _, err := Run(tinyParams(), specCfg(t), "bad", badSB); err == nil {
		t.Error("invalid small-block config accepted")
	}
}

func TestNoDataCacheMode(t *testing.T) {
	p := tinyParams()
	p.DataCache = false
	res, err := Run(p, specCfg(t), "conv", convFactory)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 {
		t.Errorf("IPC %f without data cache", res.IPC())
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := Run(tinyParams(), specCfg(t), "conv", convFactory)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPKI() < 0 {
		t.Error("negative MPKI")
	}
	if res.StallCycles() > res.Core.Cycles {
		t.Error("stall cycles exceed total cycles")
	}
}

// ubsDesigns are UBS variants whose extension counters (predictor
// organisation, congruence extensions) the plain "ubs" design leaves
// idle; warmupDesigns adds one design of every other frontend kind.
var (
	ubsDesigns = []string{
		"ubs", "ubs-pred-full-fifo",
		`{"kind":"ubs","config":{"dead_block_ways":true,"admission_filter":true}}`,
	}
	warmupDesigns = append([]string{"conv:32", "ghrp", "acic", "smallblock16", "distill"}, ubsDesigns...)
)

// TestWarmupZeroesEveryCounter pins the single warmup boundary: right
// after Warmup, every counter that reaches Result — the frontend's
// common stats, the UBS extensions, and the BPU's — reads zero, so the
// measured window is whatever accumulates from there.
func TestWarmupZeroesEveryCounter(t *testing.T) {
	wcfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range warmupDesigns {
		d, err := ParseDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.New(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(context.Background(), tinyParams(), src, wcfg.Name, d.Name, d.Factory)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Warmup(); err != nil {
			t.Fatal(err)
		}
		if m.Core().Clock() == 0 {
			t.Fatalf("%s: warmup simulated nothing", d.Name)
		}
		if st := m.Frontend().Stats(); st != (icache.Stats{}) {
			t.Errorf("%s: frontend stats after warmup = %+v, want zero", d.Name, st)
		}
		if u, ok := m.Frontend().(*ubs.Cache); ok {
			if st := u.UBSStats(); st != (ubs.Stats{}) {
				t.Errorf("%s: UBS stats after warmup = %+v, want zero", d.Name, st)
			}
		}
		if st := m.bp.Stats(); st != (bpu.Stats{}) {
			t.Errorf("%s: BPU stats after warmup = %+v, want zero", d.Name, st)
		}
	}
}

// TestInvalidTraceRecordEndsRun replays a .ubst file whose 201st record
// is an instruction of size zero on UBS. The reader must end the stream
// there, so the run fails with a short trace; the record used to reach
// FDIP and panic the UBS range mask.
func TestInvalidTraceRecordEndsRun(t *testing.T) {
	src, err := workload.New(specCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		in, _ := src.Next()
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A plain instruction at the next PC (head: class 0, pcIsSeq) of size
	// 0, then valid ones of size 4.
	data := append(buf.Bytes(), 0x80, 0x00)
	for i := 0; i < 4000; i++ {
		data = append(data, 0x80, 0x04)
	}
	r, err := trace.NewReader(bytes.NewReader(data), false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseDesign("ubs")
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Warmup, p.Measure = 1000, 5000
	if _, err := RunSource(p, r, "bad-trace", d.Name, d.Factory); err == nil {
		t.Fatal("run over a trace with a zero-size instruction succeeded")
	}
	if !errors.Is(r.Err(), trace.ErrBadFormat) {
		t.Errorf("reader error %v, want ErrBadFormat", r.Err())
	}
}
