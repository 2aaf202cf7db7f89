// Package exp implements the experiment harness: one registered experiment
// per table and figure of the paper's evaluation (see DESIGN.md §4 for the
// index). Each experiment renders the same rows/series the paper reports,
// so `ubsweep -exp <id>` (or the corresponding benchmark in bench_test.go)
// regenerates the artifact.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ubscache/internal/bpu"
	"ubscache/internal/sim"
	"ubscache/internal/workload"
	"ubscache/internal/workloadspec"
)

// Options control an experiment run.
type Options struct {
	// Params configures the simulated system. Zero-valued fields are
	// normalised field-by-field against sim.DefaultParams (see params);
	// the zero value is exactly sim.DefaultParams.
	Params sim.Params
	// PerFamily limits the number of workloads per family (0 = all).
	PerFamily int
	// Out receives progress lines; nil silences progress.
	Out io.Writer
	// Exec executes and memoizes simulation points; p is already
	// normalised. Rendering requires it; Capture never calls it.
	// The runner subsystem binds a runner.Store and the caller's context
	// here; experiments request repeated points freely and rely on Exec
	// to serve repeats from its memo.
	Exec func(p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, error)
	// Aux executes and memoizes functional analysis passes: it returns
	// the JSON bytes of the pass of the given kind over cfg walking
	// instrs instructions, calling pass only when it holds none.
	// Rendering requires it; Capture never calls it. The runner
	// subsystem binds runner.Store.RunAux here.
	Aux func(kind string, cfg workload.Config, instrs uint64, pass func() ([]byte, error)) ([]byte, error)
}

// params returns Opts.Params normalised field-by-field: zero-valued
// configuration sections (Core, Hierarchy, L1D, BPU) and zero run lengths
// (Warmup, Measure) take their sim.DefaultParams values while explicitly
// set fields are preserved. DataCache and SampleInterval are kept verbatim
// — false/0 are meaningful settings (L1-D modelling off, sampling off) —
// unless the whole struct is zero, which means sim.DefaultParams.
func (o Options) params() sim.Params {
	p := o.Params
	d := sim.DefaultParams()
	if p == (sim.Params{}) {
		return d
	}
	if p.Core.FetchWidth == 0 {
		p.Core = d.Core
	}
	if p.Hierarchy.BlockSize == 0 {
		p.Hierarchy = d.Hierarchy
	}
	if p.L1D.Sets == 0 {
		p.L1D = d.L1D
	}
	if p.BPU == (bpu.Config{}) {
		p.BPU = d.BPU
	}
	if p.Warmup == 0 {
		p.Warmup = d.Warmup
	}
	if p.Measure == 0 {
		p.Measure = d.Measure
	}
	return p
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper summarises what the paper reports for this artifact, for
	// side-by-side comparison in EXPERIMENTS.md.
	Paper string
	Run   func(r *Runner) (string, error)
}

// Registry lists all experiments in paper order.
var Registry []Experiment

func register(e Experiment) { Registry = append(Registry, e) }

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have: %s)",
		id, strings.Join(ids, ", "))
}

// SimPoint is one (params, workload, design) timed simulation an
// experiment requests. Factory rebuilds the design under test.
type SimPoint struct {
	Params   sim.Params
	Workload workloadspec.Workload
	Design   string
	Factory  sim.FrontendFactory
}

// PointID is a simulation point's exact identity under one Runner's
// Params: its workload's Ident and the (folded) design name it runs
// under. Equal PointIDs have equal store keys. Capture deduplicates
// points by it, fold scopes names by its workload half, and the runner
// memoizes each point's store key by it.
type PointID struct {
	Workload string // workloadspec.Workload.Ident
	Design   string
}

// PointOf returns the identity of design run on w.
func PointOf(w workloadspec.Workload, design string) PointID {
	return PointID{Workload: w.Ident(), Design: design}
}

// AuxPoint is one functional (timing-free) analysis pass — a Figure 1/4
// style cache walk — captured during a dry run. Key ("fig1|server_001")
// labels it and Workload names the workload it walks; Run executes the
// pass through Opts.Aux, which memoizes it for the later render. Points
// with distinct keys are safe to run concurrently.
type AuxPoint struct {
	Key      string
	Workload string
	Run      func() error
}

// Runner renders experiments: it forwards simulation points to
// Opts.Exec and functional analysis passes to Opts.Aux, and in capture
// mode records the points an experiment requests instead of running
// them. It memoizes nothing itself.
type Runner struct {
	Opts Options

	// Capture state; dry runs are single-goroutine.
	capturing bool
	simSeen   map[PointID]bool
	auxSeen   map[string]bool
	sims      []SimPoint
	auxes     []AuxPoint

	// Design folding (see fold), kept across captures and renders so
	// that both request a point under the same name. Keys are scoped by
	// the workload's Ident.
	idOf   map[PointID]string // (workload, design name) -> design ID
	nameOf map[PointID]string // (workload, design ID) -> first name requested

	// wls holds each config's resolved Workload, built on its first
	// request, so repeated points do not re-encode the config.
	wls map[workload.Config]workloadspec.Workload
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts}
}

// Capture dry-runs e, recording every simulation point and functional
// pass its rendering requests without executing any of them (rendered
// output of the dry run is discarded). The returned slices are in
// first-request order with duplicates removed. Capture must not be called
// concurrently with itself or with rendering on the same Runner, and it
// never calls Opts.Exec or Opts.Aux.
func (r *Runner) Capture(e Experiment) (sims []SimPoint, aux []AuxPoint, err error) {
	r.capturing = true
	r.simSeen = make(map[PointID]bool)
	r.auxSeen = make(map[string]bool)
	r.sims, r.auxes = nil, nil
	defer func() {
		r.capturing = false
		r.simSeen, r.auxSeen = nil, nil
		r.sims, r.auxes = nil, nil
	}()
	if _, err := e.Run(r); err != nil {
		return nil, nil, fmt.Errorf("exp: capturing %s: %w", e.ID, err)
	}
	return r.sims, r.auxes, nil
}

// workloads returns the configs of a family honouring PerFamily.
func (r *Runner) workloads(f workload.Family) []workload.Config {
	n := workload.FamilyCounts[f]
	if r.Opts.PerFamily > 0 && r.Opts.PerFamily < n {
		n = r.Opts.PerFamily
	}
	out := make([]workload.Config, 0, n)
	for i := 0; i < n; i++ {
		cfg, err := workload.Preset(f, i)
		if err != nil {
			panic(err)
		}
		out = append(out, cfg)
	}
	return out
}

// run simulates (workload, design) for a generator-backed workload; it is
// runWorkload over the config's resolved form, built once per config.
func (r *Runner) run(wcfg workload.Config, d Design) (sim.Result, error) {
	w, ok := r.wls[wcfg]
	if !ok {
		if r.wls == nil {
			r.wls = make(map[workload.Config]workloadspec.Workload)
		}
		w = workloadspec.FromConfig(wcfg)
		r.wls[wcfg] = w
	}
	return r.runWorkload(w, d)
}

// runWorkload simulates (workload, design) through Opts.Exec, under the
// name fold picks. In capture mode the point is recorded and a zero
// result returned instead; experiment rendering code must therefore
// tolerate zero results (it does: the dry-run output is thrown away).
// Tables label their columns with d.Name, never with the result's
// Design, which names the point that ran.
func (r *Runner) runWorkload(w workloadspec.Workload, d Design) (sim.Result, error) {
	design, err := r.fold(w, d)
	if err != nil {
		return sim.Result{}, err
	}
	if r.capturing {
		if id := PointOf(w, design); !r.simSeen[id] {
			r.simSeen[id] = true
			r.sims = append(r.sims, SimPoint{
				Params: r.Opts.params(), Workload: w,
				Design: design, Factory: d.Factory,
			})
		}
		return sim.Result{Workload: w.Name, Design: design}, nil
	}
	r.Opts.progress("  running %s on %s ...", w.Name, design)
	return r.Opts.Exec(r.Opts.params(), w, design, d.Factory)
}

// fold returns the name under which d runs on w: the first name its
// machine (d.ID) was requested under on w, so the aliases of one machine
// ("ubs", "ubs-32KB", "ubs-16way-c1", "ubs-pred-direct-64") share one
// point and Opts.Exec simulates it once. Two different machines
// requested under one name are an error: Opts.Exec keys points by name,
// so the second would be served the first's result. A Design without an
// ID keeps its own name.
func (r *Runner) fold(w workloadspec.Workload, d Design) (string, error) {
	if r.idOf == nil {
		r.idOf, r.nameOf = make(map[PointID]string), make(map[PointID]string)
	}
	ident := w.Ident()
	if id, ok := r.idOf[PointID{ident, d.Name}]; !ok {
		r.idOf[PointID{ident, d.Name}] = d.ID
	} else if id != d.ID {
		return "", fmt.Errorf("exp: design name %q names two machines on %s, %s and %s; give one a distinct \"name\"",
			d.Name, w.Name, id, d.ID)
	}
	if d.ID == "" {
		return d.Name, nil
	}
	name, ok := r.nameOf[PointID{ident, d.ID}]
	if !ok {
		name = d.Name
		r.nameOf[PointID{ident, d.ID}] = name
	}
	return name, nil
}

// auxRun resolves the functional pass of the given kind over wcfg
// through Opts.Aux and decodes its JSON bytes into v. compute runs the
// pass only when Opts.Aux holds no bytes for it; its result is encoded
// first, so a pass computed now and one read back from a cache render
// alike. In capture mode the pass is recorded for the scheduler instead
// and v is left as it is; the dry-run rendering is discarded.
func (r *Runner) auxRun(kind string, wcfg workload.Config, v interface{}, compute func() (interface{}, error)) error {
	instrs := r.functionalInstrs()
	pass := func() ([]byte, error) {
		res, err := compute()
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	if r.capturing {
		if key := kind + "|" + wcfg.Name; !r.auxSeen[key] {
			r.auxSeen[key] = true
			r.auxes = append(r.auxes, AuxPoint{Key: key, Workload: wcfg.Name, Run: func() error {
				_, err := r.Opts.Aux(kind, wcfg, instrs, pass)
				return err
			}})
		}
		return nil
	}
	data, err := r.Opts.Aux(kind, wcfg, instrs, pass)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("exp: %s pass on %s: %w", kind, wcfg.Name, err)
	}
	return nil
}

// Design couples a name with its factory; the standard comparison points.
// It is the registry's sim.Design — experiments obtain theirs through
// sim.MustDesign (shorthands) or the typed sim.New*Design constructors.
type Design = sim.Design

// Standard designs used across experiments.
func designConv32() Design { return sim.MustDesign("conv:32") }

func designConv64() Design { return sim.MustDesign("conv:64") }

func designUBS() Design { return sim.MustDesign("ubs") }

// perfFamilies are the families the paper's performance studies use (the
// IPC-1 categories; Google traces lack dependence information, §V-A).
var perfFamilies = []workload.Family{
	workload.FamilyClient, workload.FamilyServer, workload.FamilySPEC,
}

// allFamilies adds the Google family used by the storage-efficiency
// analyses.
var allFamilies = []workload.Family{
	workload.FamilyGoogle, workload.FamilyClient, workload.FamilyServer,
	workload.FamilySPEC,
}

// CustomExperiment synthesizes an experiment from declarative design
// specs crossed with declarative workload specs. With no workloads every
// design is simulated on the performance families and its geomean speedup
// reported against the conv-32KB baseline (the paper's standard
// comparison frame); with workloads the experiment crosses designs ×
// workloads and reports one row per workload. Spec resolution errors
// surface immediately, before any simulation runs.
func CustomExperiment(specs []sim.DesignSpec, workloads []workloadspec.Spec) (Experiment, error) {
	if len(specs) == 0 {
		return Experiment{}, fmt.Errorf("exp: custom experiment needs at least one design spec")
	}
	designs := make([]Design, len(specs))
	for i, spec := range specs {
		d, err := sim.ResolveDesign(spec)
		if err != nil {
			return Experiment{}, fmt.Errorf("exp: custom design %d: %w", i, err)
		}
		designs[i] = d
	}
	names := make([]string, len(designs))
	for i, d := range designs {
		names[i] = d.Name
	}
	wls := make([]workloadspec.Workload, len(workloads))
	for i, spec := range workloads {
		w, err := workloadspec.ResolveWorkload(spec)
		if err != nil {
			return Experiment{}, fmt.Errorf("exp: custom workload %d: %w", i, err)
		}
		wls[i] = w
	}
	if len(wls) == 0 {
		return Experiment{
			ID:    "custom",
			Title: "Custom design sweep: " + strings.Join(names, ", "),
			Paper: "User-specified designs; speedups vs the conv-32KB baseline.",
			Run: func(r *Runner) (string, error) {
				tb, err := r.speedups(designConv32(), designs, perfFamilies)
				if err != nil {
					return "", err
				}
				return "Geomean speedup over conv-32KB\n" + tb.String(), nil
			},
		}, nil
	}
	return Experiment{
		ID:    "custom",
		Title: "Custom sweep: " + strings.Join(names, ", ") + " × " + fmt.Sprintf("%d workloads", len(wls)),
		Paper: "User-specified designs × workload specs; speedups vs the conv-32KB baseline.",
		Run: func(r *Runner) (string, error) {
			tb, err := r.workloadSpeedups(designConv32(), designs, wls)
			if err != nil {
				return "", err
			}
			return "Speedup over conv-32KB, per workload spec\n" + tb.String(), nil
		},
	}, nil
}

// IDs returns all experiment ids in registration (paper) order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}
