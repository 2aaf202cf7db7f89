// Command ubsweep regenerates the paper's tables and figures. Each
// experiment id corresponds to one artifact (see DESIGN.md §4):
//
//	ubsweep -exp fig10                    # UBS / 64KB speedups over 32KB
//	ubsweep -exp all -per-family 4        # everything, 4 workloads per family
//	ubsweep -exp all -parallel 8 -v       # 8 concurrent simulations, progress/ETA
//	ubsweep -spec examples/specs/perf.json -json -out artifacts
//	ubsweep -designs ubs:64,conv:128      # custom design comparison vs conv-32KB
//	ubsweep -designs ubs,conv:64 -workload mix:examples/specs/clients.yaml
//	ubsweep -list                         # available experiments
//	ubsweep -exp all -cpuprofile cpu.out  # pprof the sweep itself
//
// Simulation points are deduplicated across experiments and run across
// -parallel workers (internal/runner); rendered tables are byte-identical
// to a sequential run. -json and -out emit machine-readable results.json
// and per-experiment CSV/TXT artifacts; -cache persists results on disk
// so interrupted sweeps resume instead of recomputing.
//
// Run lengths default to the scaled-down harness settings; raise -warmup
// and -measure towards the paper's 50M+50M for full-fidelity runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"ubscache/internal/exp"
	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

func main() {
	os.Exit(run())
}

// run carries the real main so deferred profile writers fire before exit.
func run() int {
	var (
		expID     = flag.String("exp", "", "experiment id (or 'all')")
		designsIn = flag.String("designs", "", "comma-separated design shorthands (see ubsim -design); runs a custom comparison vs conv-32KB")
		wlIn      = flag.String("workload", "", "comma-separated workload shorthands (see ubsim -workload) crossed with -designs; default: the preset families")
		list      = flag.Bool("list", false, "list experiments and exit")
		perFamily = flag.Int("per-family", 0, "workloads per family (0 = all)")
		warmup    = flag.Uint64("warmup", 0, "warmup instructions (0 = default)")
		measure   = flag.Uint64("measure", 0, "measured instructions (0 = default)")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		specPath  = flag.String("spec", "", "sweep spec JSON file (see examples/specs)")
		outDir    = flag.String("out", "", "directory for per-experiment .txt/.csv artifacts")
		jsonOut   = flag.Bool("json", false, "write results.json (into -out, or the current directory)")
		cacheDir  = flag.String("cache", "", "on-disk result cache directory (resumable sweeps)")
		verbose   = flag.Bool("v", false, "print per-run progress and ETA")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	noSelection := *expID == "" && *specPath == "" && *designsIn == "" && *wlIn == ""
	if *list || noSelection {
		fmt.Println("experiments:")
		for _, e := range exp.Registry {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
			fmt.Printf("  %-8s paper: %s\n", "", e.Paper)
		}
		if noSelection && !*list {
			fmt.Fprintln(os.Stderr, "\nusage: ubsweep -exp <id|all> | -spec <file> | -designs <d1,d2,...> [-per-family N] [-warmup N] [-measure N] [-parallel N] [-out dir] [-json] [-cache dir]")
			return 2
		}
		return 0
	}

	spec := runner.Spec{}
	if *specPath != "" {
		var err error
		spec, err = runner.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	// Command-line flags override the spec file.
	if *expID != "" {
		spec.Experiments = []string{*expID}
	}
	if *designsIn != "" {
		spec.Designs = nil
		if strings.HasPrefix(strings.TrimSpace(*designsIn), "[") {
			// A JSON array of design specs (shorthands with embedded commas,
			// e.g. inline {"kind":...} specs, can't be comma-split).
			if err := json.Unmarshal([]byte(*designsIn), &spec.Designs); err != nil {
				fmt.Fprintln(os.Stderr, "ubsweep: -designs:", err)
				return 1
			}
		} else {
			for _, name := range strings.Split(*designsIn, ",") {
				ds, err := sim.ParseDesignSpec(strings.TrimSpace(name))
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				spec.Designs = append(spec.Designs, ds)
			}
		}
	}
	if *wlIn != "" {
		spec.Workloads = nil
		if strings.HasPrefix(strings.TrimSpace(*wlIn), "[") {
			// A JSON array of workload specs (shorthands with embedded
			// commas, e.g. inline {"kind":...} specs, can't be comma-split).
			if err := json.Unmarshal([]byte(*wlIn), &spec.Workloads); err != nil {
				fmt.Fprintln(os.Stderr, "ubsweep: -workload:", err)
				return 1
			}
		} else {
			for _, name := range strings.Split(*wlIn, ",") {
				ws, err := workloadspec.ParseWorkloadSpec(strings.TrimSpace(name))
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				spec.Workloads = append(spec.Workloads, ws)
			}
		}
	}
	if *perFamily > 0 {
		spec.PerFamily = *perFamily
	}
	if *parallel > 0 {
		spec.Parallel = *parallel
	}
	if *warmup > 0 {
		spec.Params.Warmup = *warmup
	}
	if *measure > 0 {
		spec.Params.Measure = *measure
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	resultsPath := ""
	if *jsonOut {
		dir := *outDir
		if dir == "" {
			dir = "."
		}
		resultsPath = filepath.Join(dir, "results.json")
	}
	sw := &runner.Sweep{
		Spec:        spec,
		Store:       runner.NewStore(*cacheDir),
		ArtifactDir: *outDir,
		ResultsPath: resultsPath,
	}
	if *verbose {
		sw.Progress = os.Stderr
	}
	// SIGINT/SIGTERM cancel the sweep at the next heartbeat interval;
	// completed runs are flushed to results.json instead of being lost.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	outc, err := sw.RunContext(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) && outc != nil {
			fmt.Fprintf(os.Stderr, "ubsweep: interrupted; %d completed run(s) preserved", len(outc.Results.Runs))
			if resultsPath != "" {
				fmt.Fprintf(os.Stderr, " in %s", resultsPath)
			}
			fmt.Fprintln(os.Stderr)
			return 130
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, eo := range outc.Experiments {
		fmt.Printf("=== %s — %s\n", eo.Experiment.ID, eo.Experiment.Title)
		fmt.Printf("--- paper: %s\n", eo.Experiment.Paper)
		fmt.Println(eo.Output)
		fmt.Printf("(%s in %.1fs)\n\n", eo.Experiment.ID, eo.Seconds)
	}
	if *verbose && resultsPath != "" {
		fmt.Fprintf(os.Stderr, "runner: wrote %s (%d runs)\n", resultsPath, len(outc.Results.Runs))
	}
	return 0
}
