// Package ubscache is a trace-driven CPU front-end simulator built around
// the Uneven Block Size (UBS) instruction cache of Brunner and Kumar,
// "Weeding out Front-End Stalls with Uneven Block Size Instruction Cache"
// (MICRO 2024).
//
// The library bundles everything needed to study instruction-cache storage
// efficiency: synthetic server/client/SPEC workload generators, a hashed
// perceptron + BTB front end with FDIP prefetching, a generic cache model
// with pluggable replacement (including GHRP), the UBS cache itself with
// its useful-byte predictor, the paper's baselines (small-block caches,
// Line Distillation, ACIC), a Table I out-of-order core model, and an
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	w, _ := ubscache.ParseWorkload("server_001")
//	rep, _ := ubscache.SimulateWorkload(ubscache.UBS(), w, ubscache.Quick())
//	fmt.Printf("IPC %.3f, L1-I MPKI %.1f\n", rep.IPC(), rep.MPKI())
//
// See the examples directory and cmd/ubsim, cmd/ubsweep, cmd/tracegen.
package ubscache

import (
	"context"
	"io"

	"ubscache/internal/checkpoint"
	"ubscache/internal/exp"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/obs"
	"ubscache/internal/runner"
	"ubscache/internal/serve"
	"ubscache/internal/sim"
	"ubscache/internal/trace"
	"ubscache/internal/ubs"
	"ubscache/internal/workload"
	"ubscache/internal/workloadspec"
)

// WorkloadConfig parameterises a synthetic workload (see the workload
// package docs for the knobs: footprint, hot/cold mixing, branch bias...).
type WorkloadConfig = workload.Config

// Family identifies a workload category (server, client, spec, google,
// cvp-server, cvp-int, cvp-fp).
type Family = workload.Family

// The workload families.
const (
	FamilyServer    = workload.FamilyServer
	FamilyClient    = workload.FamilyClient
	FamilySPEC      = workload.FamilySPEC
	FamilyGoogle    = workload.FamilyGoogle
	FamilyCVPServer = workload.FamilyCVPServer
	FamilyCVPInt    = workload.FamilyCVPInt
	FamilyCVPFP     = workload.FamilyCVPFP
	FamilyX86Server = workload.FamilyX86Server
)

// WorkloadSpec is the declarative, JSON-serializable workload description
// used by sweep specs and ResolveWorkload: a registered kind ("preset",
// "config", "mix", "champsim", "trace") plus kind-specific configuration
// — the workload-side mirror of DesignSpec.
type WorkloadSpec = workloadspec.Spec

// ResolvedWorkload is a resolved WorkloadSpec: a named instruction-stream
// factory ready to simulate (see SimulateWorkload). Generator-backed
// workloads additionally expose their synthetic WorkloadConfig through
// its Config method.
type ResolvedWorkload = workloadspec.Workload

// ParseWorkload resolves a workload shorthand — the same grammar as
// `ubsim -workload` (a bare preset name, preset:server_003,
// mix:clients.yaml, champsim:trace.gz, trace:a.ubst, or an inline JSON
// WorkloadSpec starting with '{') — symmetric to ParseDesign.
func ParseWorkload(name string) (ResolvedWorkload, error) {
	return workloadspec.ParseWorkload(name)
}

// ResolveWorkload materialises a declarative WorkloadSpec.
func ResolveWorkload(spec WorkloadSpec) (ResolvedWorkload, error) {
	return workloadspec.ResolveWorkload(spec)
}

// WorkloadKinds lists the registered workload kinds, sorted.
func WorkloadKinds() []string { return workloadspec.WorkloadKinds() }

// WorkloadNames lists the preset workloads of a family, for discovery:
// each name is a ParseWorkload shorthand.
func WorkloadNames(f Family) []string { return workload.Names(f) }

// Families lists all workload families.
func Families() []Family { return workload.Families() }

// NewSource builds the infinite instruction stream of a workload.
func NewSource(cfg WorkloadConfig) (Source, error) {
	w, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Source is a stream of dynamic instructions.
type Source = trace.Source

// Instr is one dynamic instruction.
type Instr = trace.Instr

// OpenTrace opens a UBST trace file as a Source.
func OpenTrace(path string) (*trace.Reader, error) { return trace.Open(path) }

// WriteTrace materialises up to n instructions of src into a UBST file.
func WriteTrace(path string, src Source, n uint64) (uint64, error) {
	return trace.WriteAll(path, trace.NewLimit(src, n))
}

// Design names an instruction-cache organisation under test. All
// constructors resolve through the sim design registry; ParseDesign and
// ResolveDesign expose the registry's shorthand and declarative entry
// points directly.
type Design struct {
	Name    string
	factory sim.FrontendFactory
}

// DesignSpec is the declarative, JSON-serializable design description
// used by sweep specs and ResolveDesign: a registered kind ("conv",
// "ubs", "smallblock", "distill") plus kind-specific configuration.
type DesignSpec = sim.DesignSpec

// ParseDesign resolves a design shorthand — the same grammar as
// `ubsim -design` (conv:<KB>, ubs, ubs:<KB>, ghrp, acic, smallblock16,
// distill, ...) or an inline JSON DesignSpec starting with '{'.
func ParseDesign(name string) (Design, error) {
	d, err := sim.ParseDesign(name)
	if err != nil {
		return Design{}, err
	}
	return Design{d.Name, d.Factory}, nil
}

// ResolveDesign materialises a declarative DesignSpec.
func ResolveDesign(spec DesignSpec) (Design, error) {
	d, err := sim.ResolveDesign(spec)
	if err != nil {
		return Design{}, err
	}
	return Design{d.Name, d.Factory}, nil
}

// DesignKinds lists the registered design kinds, sorted.
func DesignKinds() []string { return sim.DesignKinds() }

// fromSim adapts a registry design, deferring any construction error to
// simulation time (the facade constructors are error-free by contract; an
// invalid configuration surfaces when the design is first simulated).
func fromSim(d sim.Design, err error) Design {
	if err != nil {
		return Design{Name: "invalid", factory: func(*mem.Hierarchy) (icache.Frontend, error) {
			return nil, err
		}}
	}
	return Design{d.Name, d.Factory}
}

// Conventional returns a fixed-64B-block L1-I of the given capacity in KB
// (8 ways, LRU; the kb=32 point is the paper's Table I baseline).
func Conventional(kb int) Design {
	return fromSim(sim.NewConvDesign(sim.ConvDesign{KB: kb}))
}

// UBS returns the paper's default Table II UBS cache (a 32KB-class budget).
func UBS() Design { return fromSim(sim.NewUBSDesign(sim.UBSDesign{})) }

// UBSSized returns a UBS cache scaled to roughly kb KB of storage budget.
func UBSSized(kb int) Design {
	return fromSim(sim.NewUBSDesign(sim.UBSDesign{KB: kb}))
}

// UBSCustom wraps an arbitrary UBS configuration.
func UBSCustom(cfg UBSConfig) Design {
	return fromSim(sim.NewUBSDesign(sim.UBSDesign{Custom: &cfg}))
}

// UBSConfig is the full UBS cache configuration (way sizes, predictor
// organisation, placement window...).
type UBSConfig = ubs.Config

// DefaultUBSConfig returns the Table II configuration.
func DefaultUBSConfig() UBSConfig { return ubs.DefaultConfig() }

// UBSX86 returns the Table II UBS cache in byte-granularity mode for
// variable-length ISAs (§IV-B/§IV-C: byte bit-vectors, 6-bit offsets).
func UBSX86() Design {
	return fromSim(sim.NewUBSDesign(sim.UBSDesign{Name: "ubs-x86", OffsetGranule: 1}))
}

// SmallBlock returns the 16B- or 32B-block baseline of Figure 12.
func SmallBlock(blockBytes int) Design {
	if blockBytes == 16 {
		return fromSim(sim.NewSmallBlockDesign(sim.SmallBlockDesign{}))
	}
	return fromSim(sim.NewSmallBlockDesign(sim.SmallBlockDesign{BlockSize: 32}))
}

// LineDistillation returns the Figure 13 Line Distillation baseline.
func LineDistillation() Design {
	return fromSim(sim.NewDistillDesign(sim.DistillDesign{}))
}

// GHRP returns the 32KB baseline with GHRP replacement (Figure 13).
func GHRP() Design {
	return fromSim(sim.NewConvDesign(sim.ConvDesign{Policy: "ghrp"}))
}

// ACIC returns the 32KB baseline with admission control (Figure 13).
func ACIC() Design {
	return fromSim(sim.NewConvDesign(sim.ConvDesign{ACIC: true}))
}

// Options configure a simulation run.
type Options = sim.Params

// DefaultOptions returns the Table I system with the harness's scaled-down
// run lengths (1M warmup + 4M measured instructions).
func DefaultOptions() Options { return sim.DefaultParams() }

// Quick returns options for fast exploratory runs (200K+800K instructions).
func Quick() Options {
	p := sim.DefaultParams()
	p.Warmup = 200_000
	p.Measure = 800_000
	return p
}

// Report is a simulation result: core timing, cache counters, BPU
// counters, and periodic storage-efficiency samples.
type Report = sim.Result

// Observer receives run lifecycle events and periodic heartbeat snapshots
// from a simulation. Set it on Options.Observer; see the obs package for
// the event contract (all callbacks run synchronously on the simulation
// goroutine). A nil observer costs nothing.
type Observer = obs.Observer

// Heartbeat is one periodic progress snapshot (rolling IPC, L1-I MPKI,
// partial-miss breakdown, MSHR occupancy, predictor hit rate).
type Heartbeat = obs.Heartbeat

// RunInfo describes a run at BeginRun time.
type RunInfo = obs.RunInfo

// Metrics is an atomic snapshot of the run's metric registry.
type Metrics = obs.Snapshot

// Observers fans lifecycle events out to several observers in order.
type Observers = obs.Observers

// FuncObserver adapts plain callbacks to the Observer interface; nil
// members are skipped.
type FuncObserver = obs.FuncObserver

// NewHeartbeatWriter returns an Observer streaming NDJSON heartbeat
// records (plus a begin record and a final manifest) to w — the same
// format as `ubsim -stats-json`.
func NewHeartbeatWriter(w io.Writer) *obs.NDJSON { return obs.NewNDJSON(w) }

// NewMetricsServer returns an Observer that additionally serves the
// latest heartbeat and metric snapshot over HTTP (Prometheus text format
// at /metrics, JSON at /vars) — the same surface as `ubsim -http`.
func NewMetricsServer() *obs.Server { return obs.NewServer() }

// Simulate runs a workload on a design.
func Simulate(d Design, w WorkloadConfig, opts Options) (Report, error) {
	return sim.Run(opts, w, d.Name, d.factory)
}

// SimulateContext is Simulate honouring ctx: cancellation is checked at
// every heartbeat interval (Options.HeartbeatEvery cycles, falling back
// to Options.SampleInterval) and an interrupted run returns ctx.Err().
func SimulateContext(ctx context.Context, d Design, w WorkloadConfig, opts Options) (Report, error) {
	return sim.RunContext(ctx, opts, w, d.Name, d.factory)
}

// SimulateSource runs an arbitrary instruction source on a design.
func SimulateSource(d Design, src Source, name string, opts Options) (Report, error) {
	return sim.RunSource(opts, src, name, d.Name, d.factory)
}

// SimulateSourceContext is SimulateSource honouring ctx (see
// SimulateContext).
func SimulateSourceContext(ctx context.Context, d Design, src Source, name string, opts Options) (Report, error) {
	return sim.RunSourceContext(ctx, opts, src, name, d.Name, d.factory)
}

// SimulateWorkload runs a resolved registry workload — preset, explicit
// config, multi-client mix, or imported trace — on a design.
func SimulateWorkload(d Design, w ResolvedWorkload, opts Options) (Report, error) {
	return workloadspec.Run(context.Background(), opts, w, d.Name, d.factory)
}

// SimulateWorkloadContext is SimulateWorkload honouring ctx (see
// SimulateContext).
func SimulateWorkloadContext(ctx context.Context, d Design, w ResolvedWorkload, opts Options) (Report, error) {
	return workloadspec.Run(ctx, opts, w, d.Name, d.factory)
}

// CheckpointMeta identifies what a checkpoint file resumes: the
// declarative workload spec, the design shorthand, the full system
// parameters, and the instruction position the image was taken at.
type CheckpointMeta = checkpoint.Meta

// ResumeRunOptions re-inject the process-local wiring a checkpoint
// cannot carry (observer, heartbeat override).
type ResumeRunOptions = checkpoint.ResumeOptions

// ResumedRun is a simulation rebuilt from a checkpoint file: the
// recorded workload re-resolved, its source restored (a synthetic
// walker from its image, any other source by replay to the recorded
// cursor), and every simulator layer's state restored. Run it to
// completion with CompleteRun and release the source with Close.
type ResumedRun = checkpoint.Resumed

// ResumeRun rebuilds a runnable simulation from the checkpoint at path
// — the library form of `ubsim -resume`. The resumed run produces a
// Report byte-identical to the uninterrupted run's.
func ResumeRun(ctx context.Context, path string, opts ResumeRunOptions) (*ResumedRun, error) {
	return checkpoint.Resume(ctx, path, opts)
}

// CompleteRun drives a resumed run to the end of its measured region,
// handing an encoded checkpoint to save every `every` measured
// instructions (0 disables checkpointing). Write the bytes with
// WriteCheckpointAtomic so readers never observe a torn file.
func CompleteRun(r *ResumedRun, every uint64, save func(data []byte) error) (Report, error) {
	return checkpoint.Complete(r.Machine, r.Meta, every, save)
}

// WriteCheckpointAtomic persists encoded checkpoint bytes via a
// same-directory temp file, fsync, and rename.
func WriteCheckpointAtomic(path string, data []byte) error {
	return checkpoint.WriteFileAtomic(path, data)
}

// ExperimentIDs lists the reproducible paper artifacts (fig1..fig16,
// table1..table4, cvp) in paper order.
func ExperimentIDs() []string { return exp.IDs() }

// ExperimentOptions configure RunExperiment. The zero value runs the full
// workload set with default parameters and no progress output.
type ExperimentOptions struct {
	// Options configures the simulated system; zero-valued sections take
	// the Table I defaults (the zero value is exactly DefaultOptions).
	Options Options
	// PerFamily limits the number of workloads per family (0 = all).
	PerFamily int
	// Progress, if non-nil, receives per-run progress lines.
	Progress io.Writer
	// Context, if non-nil, cancels in-flight simulations between
	// heartbeat intervals (see SimulateContext).
	Context context.Context
}

// RunExperiment regenerates one paper artifact and returns its rendered
// text. Simulation points and functional passes run serially, as the
// rendering requests them, through a fresh in-memory ResultStore, so a
// point the artifact needs twice runs once.
func RunExperiment(id string, eo ExperimentOptions) (string, error) {
	e, err := exp.ByID(id)
	if err != nil {
		return "", err
	}
	ctx := eo.Context
	if ctx == nil {
		ctx = context.Background()
	}
	store := runner.NewStore("")
	return e.Run(exp.NewRunner(exp.Options{
		Params: eo.Options, PerFamily: eo.PerFamily, Out: eo.Progress,
		Exec: func(p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, error) {
			return store.RunWorkloadContext(ctx, p, w, design, factory)
		},
		Aux: store.RunAux,
	}))
}

// JobServer is the embeddable simulation-as-a-service core behind the
// ubsd daemon: a bounded worker pool with per-priority admission control
// over a memoizing ResultStore, per-job SSE progress streams, and a
// graceful drain. Mount JobServer.Handler on any HTTP server.
type JobServer = serve.Server

// JobServerConfig configures NewJobServer; the zero value (plus a Store)
// uses the ubsd defaults.
type JobServerConfig = serve.Config

// ResultStore memoizes simulation results by content key, deduplicating
// identical specs to a single execution (singleflight) and optionally
// persisting results to a crash-safe on-disk cache.
type ResultStore = runner.Store

// NewResultStore builds a ResultStore; dir == "" keeps results in memory
// only, otherwise results persist under dir and survive restarts.
func NewResultStore(dir string) *ResultStore { return runner.NewStore(dir) }

// NewJobServer starts a job server (the worker pool runs immediately).
// Stop it with Drain for a graceful shutdown or Close to cancel
// everything in flight.
func NewJobServer(cfg JobServerConfig) *JobServer { return serve.New(cfg) }
