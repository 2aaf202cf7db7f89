package ubscache

// The benchmark harness: one benchmark per table and figure of the paper
// (BenchmarkFig*/BenchmarkTable*), each regenerating the corresponding
// artifact at a reduced scale (one workload per family, short runs), plus
// the DESIGN.md §9 ablation benches and microbenchmarks of the core data
// structures.
//
// Full-scale regeneration: cmd/ubsweep (e.g. `ubsweep -exp fig10`).

import (
	"testing"

	"ubscache/internal/bpu"
	"ubscache/internal/cache"
	"ubscache/internal/sim"
	"ubscache/internal/trace"
	"ubscache/internal/ubs"
	"ubscache/internal/workload"
)

// benchOpts returns reduced-scale harness options sized for benchmarks.
func benchOpts() ExperimentOptions {
	p := sim.DefaultParams()
	p.Warmup = 50_000
	p.Measure = 200_000
	return ExperimentOptions{Options: p, PerFamily: 1}
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := RunExperiment(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkCVP(b *testing.B)    { benchExperiment(b, "cvp") }

// --- Ablation benches (DESIGN.md §9) ---------------------------------

// ablationRun simulates server_001 on a UBS variant and reports MPKI and
// IPC as benchmark metrics.
func ablationRun(b *testing.B, mutate func(*ubs.Config)) {
	b.Helper()
	w, err := ParseWorkload("server_001")
	if err != nil {
		b.Fatal(err)
	}
	p := sim.DefaultParams()
	p.Warmup = 50_000
	p.Measure = 200_000
	var lastIPC, lastMPKI float64
	for i := 0; i < b.N; i++ {
		cfg := ubs.DefaultConfig()
		mutate(&cfg)
		rep, err := SimulateWorkload(UBSCustom(cfg), w, p)
		if err != nil {
			b.Fatal(err)
		}
		lastIPC, lastMPKI = rep.IPC(), rep.MPKI()
	}
	b.ReportMetric(lastIPC, "IPC")
	b.ReportMetric(lastMPKI, "L1I-MPKI")
}

func BenchmarkAblationDefault(b *testing.B) {
	ablationRun(b, func(c *ubs.Config) {})
}

func BenchmarkAblationNoTrailingFill(b *testing.B) {
	ablationRun(b, func(c *ubs.Config) { c.FillTrailing = false })
}

func BenchmarkAblationWindow1(b *testing.B) {
	ablationRun(b, func(c *ubs.Config) { c.PlacementWindow = 1 })
}

func BenchmarkAblationWindow2(b *testing.B) {
	ablationRun(b, func(c *ubs.Config) { c.PlacementWindow = 2 })
}

func BenchmarkAblationWindow8(b *testing.B) {
	ablationRun(b, func(c *ubs.Config) { c.PlacementWindow = 8 })
}

func BenchmarkAblationWindow16(b *testing.B) {
	ablationRun(b, func(c *ubs.Config) { c.PlacementWindow = 16 })
}

// --- Microbenchmarks ---------------------------------------------------

// BenchmarkSimulatorThroughput measures end-to-end simulated instructions
// per second on the full system.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := ParseWorkload("server_001")
	if err != nil {
		b.Fatal(err)
	}
	p := sim.DefaultParams()
	p.Warmup = 0
	p.Measure = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateWorkload(UBS(), w, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.Measure), "instrs/op")
}

// BenchmarkConvCacheAccess measures the generic cache array fast path.
func BenchmarkConvCacheAccess(b *testing.B) {
	c := cache.MustNew(cache.Config{Sets: 64, Ways: 8, BlockSize: 64})
	for i := 0; i < 1024; i++ {
		addr := uint64(i%512) * 64
		ctx := cache.AccessContext{Cycle: uint64(i)}
		if !c.Access(addr, 4, ctx) {
			c.Fill(addr, ctx)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%512)*64, 4, cache.AccessContext{Cycle: uint64(i)})
	}
}

// BenchmarkWalker measures synthetic-trace generation throughput.
func BenchmarkWalker(b *testing.B) {
	cfg, err := workload.Preset(workload.FamilyServer, 0)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Next()
	}
}

// BenchmarkBPU measures the branch predictor pipeline.
func BenchmarkBPU(b *testing.B) {
	cfg, _ := workload.Preset(workload.FamilyServer, 0)
	w, err := workload.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	branches := make([]trace.Instr, 0, 4096)
	for len(branches) < 4096 {
		in, _ := w.Next()
		if in.Class.IsBranch() {
			branches = append(branches, in)
		}
	}
	bp := bpu.New(bpu.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.PredictAndTrain(&branches[i%len(branches)])
	}
}

// BenchmarkTraceEncode measures UBST encoding throughput.
func BenchmarkTraceEncode(b *testing.B) {
	cfg, _ := workload.Preset(workload.FamilyClient, 0)
	w, _ := workload.New(cfg)
	ins := trace.Collect(w, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.WriteAll(b.TempDir()+"/t.ubst", trace.NewSlice(ins)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(ins)))
}

// --- Extension benches --------------------------------------------------

func BenchmarkX86(b *testing.B)        { benchExperiment(b, "x86") }
func BenchmarkCongruence(b *testing.B) { benchExperiment(b, "congruence") }

func BenchmarkAblationDeadBlockWays(b *testing.B) {
	ablationRun(b, func(c *ubs.Config) { c.DeadBlockWays = true })
}

func BenchmarkAblationAdmissionFilter(b *testing.B) {
	ablationRun(b, func(c *ubs.Config) { c.AdmissionFilter = true })
}

func BenchmarkAblationByteGranule(b *testing.B) {
	ablationRun(b, func(c *ubs.Config) { c.OffsetGranule = 1 })
}
