// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock budget, checks the simulator's outputs
// and prints one JSON object as the last line of standard output: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// run. The line before it records the machine and the inputs. README.md
// describes the workloads and the metrics; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload server-fe --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change to
// the simulator: a claimed gain must hold on it too.
const heldOutSeed = 1_000_003

// buildDir, under the directory the benchmark runs in, holds its build
// and scratch files.
const buildDir = ".bench_build"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; an untraced run
// (-trace 0) of every workload reports each of them.
var endToEnd = []metricDef{
	{"ns_per_instr.conv", "ns"},
	{"ns_per_instr.smallblock", "ns"},
	{"ns_per_instr.distill", "ns"},
	{"ns_per_instr.ubs", "ns"},
	{"setup_s", "s"},
	{"run_s", "s"},
	{"warm_s", "s"},
	{"checkpoint_write_ms", "ms"},
	{"resume_ms", "ms"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics; a traced run (-trace 1) of every
// workload reports each of them, 0 for a layer the workload does not
// exercise.
var perLayer = perLayerDefs()

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"workload.build_ms", "ms"},
		{"workload.next_calls", "count"},
		{"workload.next_ns", "ns"},
		{"bpu.predict_calls", "count"},
		{"bpu.predict_ns", "ns"},
		{"bpu.mispredict_mpki", "mpki"},
	}
	for _, m := range []metricDef{
		{"icache.fetch_calls", "count"},
		{"icache.fetch_hit_ns", "ns"},
		{"icache.fetch_miss_ns", "ns"},
		{"icache.prefetch_calls", "count"},
		{"icache.prefetch_ns", "ns"},
		{"icache.mpki", "mpki"},
		{"icache.partial_miss_frac", "fraction"},
		{"icache.prefetch_drop_frac", "fraction"},
		{"icache.storage_eff", "fraction"},
	} {
		for _, d := range designs {
			defs = append(defs, metricDef{m.name + "." + d.key, m.unit})
		}
	}
	defs = append(defs,
		metricDef{"mem.fetchblock_calls", "count"},
		metricDef{"mem.fetchblock_ns", "ns"},
		metricDef{"mem.l1d_load_calls", "count"},
		metricDef{"mem.l1d_load_ns", "ns"},
		metricDef{"core.cycles", "cycles"},
		metricDef{"core.cycle_ns_per_instr", "ns"},
		metricDef{"core.self_ns_per_instr", "ns"},
	)
	for _, d := range designs {
		defs = append(defs, metricDef{"core.ipc." + d.key, "instr/cycle"})
	}
	for _, d := range designs {
		defs = append(defs, metricDef{"core.icache_stall_frac." + d.key, "fraction"})
	}
	return append(defs,
		metricDef{"sim.newmachine_ms", "ms"},
		metricDef{"sim.ubs_ipc_gain_pct", "%"},
		metricDef{"runner.points", "count"},
		metricDef{"runner.store_hit_frac", "fraction"},
		metricDef{"runner.sim_s_sum", "s"},
		metricDef{"runner.setup_share", "fraction"},
		metricDef{"runner.parallel_eff", "fraction"},
		metricDef{"checkpoint.bytes", "bytes"},
		metricDef{"checkpoint.encode_ms", "ms"},
		metricDef{"checkpoint.decode_ms", "ms"},
		metricDef{"checkpoint.replay_ms", "ms"},
		metricDef{"serve.submit_us", "us"},
		metricDef{"serve.queue_wait_ms.interactive", "ms"},
		metricDef{"serve.queue_wait_ms.batch", "ms"},
		metricDef{"serve.run_ms.interactive", "ms"},
		metricDef{"serve.run_ms.batch", "ms"},
		metricDef{"serve.from_cache_frac", "fraction"},
		metricDef{"serve.rejected", "count"},
		metricDef{"bench.gen_late_ms", "ms"},
		metricDef{"bench.unattributed_pct", "%"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"server-fe":   func(b *bench) error { return b.runSim("server_001") },
	"spec-loop":   func(b *bench) error { return b.runSim("spec_001") },
	"paper-sweep": (*bench).runSweep,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is one benchmark run: its inputs, its checks and its metrics.
type bench struct {
	seed    int64
	budget  time.Duration
	traced  bool
	dir     string // scratch directory, removed at exit
	workers int
	timerNs float64

	mu         sync.Mutex // guards the fields below; runs report concurrently
	attempted  int
	failed     int
	metrics    map[string]float64
	notes      map[string]any
	kept       streams
	keptBlocks map[string][]blockReq
	// windows holds, for a metric measured in part of the run, the span
	// its samples were taken in; other metrics span the whole run.
	windows map[string][2]time.Time
}

func newBench(seed int64, budget time.Duration, traced bool, dir string) *bench {
	b := &bench{
		seed: seed, budget: budget, traced: traced, dir: dir,
		workers:    runtime.NumCPU(),
		metrics:    map[string]float64{},
		notes:      map[string]any{},
		keptBlocks: map[string][]blockReq{},
		windows:    map[string][2]time.Time{},
	}
	if traced {
		b.timerNs = calibrateTimer()
	}
	return b
}

// check counts one checked output; a failed check is reported on
// standard error and makes the run incorrect.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metrics[name] = v
}

func (b *bench) note(key string, v any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.notes[key] = v
}

// phase starts a part of the run in which the named metrics are
// measured; calling the returned function ends it. The host's speed over
// that part scales them (see normalise).
func (b *bench) phase(names ...string) (end func()) {
	from := time.Now()
	return func() {
		to := time.Now()
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, n := range names {
			b.windows[n] = [2]time.Time{from, to}
		}
	}
}

// timeUnits are the units of host times.
var timeUnits = map[string]bool{"ns": true, "us": true, "ms": true, "s": true}

// normalise reports every host time of defs at the reference speed: it
// scales each by refPassNs over the reference kernel's mean pass time
// during the metric's window, or during the run from start to end.
func (b *bench) normalise(defs []metricDef, speed *speedSampler, start, end time.Time) {
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok || !timeUnits[d.unit] {
			continue
		}
		w, ok := b.windows[d.name]
		if !ok {
			w = [2]time.Time{start, end}
		}
		b.metrics[d.name] = v * refPassNs / speed.passNs(w[0], w[1])
	}
}

// zero reports 0 for the per-layer metrics of layers a workload does not
// exercise.
func (b *bench) zero(names ...string) {
	for _, n := range names {
		b.set(n, 0)
	}
}

// setJobs reports job latencies in ms: the median, and the tail at p95
// or the highest percentile below it with minBeyond samples above.
func (b *bench) setJobs(lat []float64) {
	b.set("job_p50_ms", median(lat))
	v, pct, ok := tailPercentile(lat, 0.95)
	if !ok {
		v, pct = sorted(lat)[len(lat)-1], 1
	}
	b.set("job_p95_ms", v)
	b.note("job_samples", len(lat))
	b.note("job_tail_percentile", pct)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report assembles the result line from defs: every end-to-end metric,
// or every per-layer one for a traced run.
func (b *bench) report(defs []metricDef) (result, error) {
	out := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fl.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fl.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fl.Float64("seconds", 15, "measurement budget in seconds")
		traced  = fl.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := newBench(*seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, dir)
	speed := startSpeedSampler()
	start := time.Now()
	err = runWorkload(b)
	end := time.Now()
	passNs, passes := speed.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	b.note("speed_pass_ns", passNs)
	b.note("speed_passes", passes)
	b.set("peak_rss_mb", peakRSSMB())
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	b.normalise(defs, speed, start, end)
	res, err := b.report(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]any{
		"workload":      *name,
		"seed":          *seed,
		"held_out_seed": heldOutSeed,
		"seconds":       *seconds,
		"trace":         *traced,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"commit":        commit(),
		"source_sha256": sourceDigest(),
		"notes":         b.notes,
	})
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit reads the checked-out commit from .git, when the benchmark runs
// in a git work tree.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory: it names the code measured where there is no commit.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
