// Package workloadspec is the declarative workload registry — the
// workload-side mirror of the sim design registry. A Spec names a
// registered kind plus kind-specific configuration; ResolveWorkload
// materialises it into a Workload that can open its instruction stream
// (and, for generator-backed kinds, expose the underlying synthetic
// config so legacy content keys stay stable).
//
// Registered kinds:
//
//	preset    a named synthetic preset ("server_003")
//	config    a fully explicit workload.Config
//	mix       multiple weighted clients interleaved by an arrival process
//	champsim  a ChampSim-format trace file replayed through the front end
//	trace     a UBST trace file replayed through the front end
//
// The CLI shorthand grammar (ParseWorkload) is symmetric to the design
// shorthand grammar: "preset:server_003", "mix:clients.yaml",
// "champsim:trace.gz", "trace:a.ubst", a bare preset name, or an inline
// JSON Spec starting with '{'.
package workloadspec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ubscache/internal/sim"
	"ubscache/internal/trace"
	"ubscache/internal/workload"
)

// Spec is the declarative, JSON-serializable form of a workload: a
// registered kind plus its kind-specific configuration. Specs appear in
// sweep-spec files ("workloads": [...]) and resolve through
// ResolveWorkload:
//
//	{"kind": "preset", "config": {"name": "server_003"}}
//	{"kind": "mix", "config": {"clients": [...]}}
type Spec struct {
	Kind   string          `json:"kind"`
	Config json.RawMessage `json:"config,omitempty"`
}

// Workload is a resolved Spec: a named instruction-stream factory. For
// generator-backed kinds (preset, config) the underlying synthetic
// configuration is exposed through Config, which lets the runner keep its
// legacy content keys and lets the simulator rebuild the walker itself.
type Workload struct {
	// Name identifies the workload in results and progress output.
	Name string
	// Spec is the canonical declarative form (mix files are inlined), the
	// content-hash identity for source-backed workloads.
	Spec Spec

	cfg  *workload.Config
	open func() (trace.Source, error)
}

// Config returns the synthetic generator configuration behind the
// workload, if it has one (preset and config kinds do; trace-backed and
// mix workloads do not).
func (w Workload) Config() (workload.Config, bool) {
	if w.cfg == nil {
		return workload.Config{}, false
	}
	return *w.cfg, true
}

// NewSource opens a fresh instruction stream. Each call returns an
// independent source replaying the workload from its beginning, so
// repeated simulations of the same Workload are identical.
func (w Workload) NewSource() (trace.Source, error) {
	if w.open != nil {
		return w.open()
	}
	if w.cfg != nil {
		return workload.New(*w.cfg)
	}
	return nil, fmt.Errorf("workloadspec: zero Workload has no source")
}

// Ident is the workload's dedup identity within a process: the preset or
// config name for generator-backed workloads (matching the experiment
// harness's historical memo keys), the canonical spec otherwise.
func (w Workload) Ident() string {
	if w.cfg != nil {
		return w.Name
	}
	return w.Spec.Kind + ":" + string(w.Spec.Config)
}

// FromConfig wraps an explicit generator configuration as a resolved
// "config"-kind workload.
func FromConfig(cfg workload.Config) Workload {
	spec, err := specOf("config", cfg)
	if err != nil {
		// workload.Config is a flat struct of exported value fields;
		// marshalling cannot fail.
		panic(err)
	}
	return Workload{Name: cfg.Name, Spec: spec, cfg: &cfg}
}

// workloadKinds is the registration table mapping a kind to its config
// decoder + builder.
var workloadKinds = map[string]func(json.RawMessage) (Workload, error){}

// RegisterWorkload registers a workload kind whose configuration decodes
// into C (unknown JSON fields are rejected; an absent config decodes the
// zero C). It returns build itself, so packages can bind a typed
// constructor to the same function the registry resolves through:
//
//	var NewMyWorkload = workloadspec.RegisterWorkload("mykind", buildMy)
//
// Registering a duplicate kind panics (a wiring error, caught at init).
// A build that leaves Workload.Spec zero gets the canonical re-marshalled
// spec filled in; builds that rewrite their config (e.g. inlining a mix
// file) set Spec themselves.
func RegisterWorkload[C any](kind string, build func(C) (Workload, error)) func(C) (Workload, error) {
	if _, dup := workloadKinds[kind]; dup {
		panic(fmt.Sprintf("workloadspec: workload kind %q registered twice", kind))
	}
	workloadKinds[kind] = func(raw json.RawMessage) (Workload, error) {
		var cfg C
		if len(raw) > 0 {
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&cfg); err != nil {
				return Workload{}, fmt.Errorf("workloadspec: workload kind %q: %w", kind, err)
			}
		}
		w, err := build(cfg)
		if err != nil {
			return Workload{}, err
		}
		if w.Spec.Kind == "" {
			spec, err := specOf(kind, cfg)
			if err != nil {
				return Workload{}, err
			}
			w.Spec = spec
		}
		return w, nil
	}
	return build
}

// WorkloadKinds lists the registered kinds, sorted.
func WorkloadKinds() []string {
	out := make([]string, 0, len(workloadKinds))
	for k := range workloadKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ResolveWorkload materialises a Spec through the registration table.
func ResolveWorkload(spec Spec) (Workload, error) {
	build, ok := workloadKinds[spec.Kind]
	if !ok {
		return Workload{}, fmt.Errorf("workloadspec: unknown workload kind %q (have: %s)",
			spec.Kind, strings.Join(WorkloadKinds(), ", "))
	}
	return build(spec.Config)
}

// specOf marshals a typed workload config into its Spec.
func specOf(kind string, cfg interface{}) (Spec, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return Spec{}, fmt.Errorf("workloadspec: encoding %s workload: %w", kind, err)
	}
	if string(raw) == "{}" {
		raw = nil
	}
	return Spec{Kind: kind, Config: raw}, nil
}

// PresetWorkload declares a named synthetic preset.
type PresetWorkload struct {
	Name string `json:"name"`
}

func buildPreset(c PresetWorkload) (Workload, error) {
	cfg, err := workload.ByName(c.Name)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: cfg.Name, cfg: &cfg}, nil
}

func buildConfig(cfg workload.Config) (Workload, error) {
	if cfg.Name == "" {
		cfg.Name = "custom"
	}
	return Workload{Name: cfg.Name, cfg: &cfg}, nil
}

// TraceWorkload declares a UBST trace file replay. Loop (default true)
// restarts the file when it ends, turning a finite capture into a
// steady-state workload; loop=false streams the file once and lets the
// simulation fail if it is shorter than warmup+measure.
type TraceWorkload struct {
	Path string `json:"path"`
	Name string `json:"name,omitempty"`
	Loop *bool  `json:"loop,omitempty"`
}

func buildTrace(c TraceWorkload) (Workload, error) {
	if c.Path == "" {
		return Workload{}, fmt.Errorf("workloadspec: trace workload needs a path")
	}
	loop := c.Loop == nil || *c.Loop
	name := c.Name
	if name == "" {
		name = baseName(c.Path)
	}
	return Workload{
		Name: name,
		open: func() (trace.Source, error) {
			r, err := trace.Open(c.Path)
			if err != nil {
				return nil, err
			}
			if !loop {
				return r, nil
			}
			return &fileLoop{
				open: func() (trace.Source, func() error, error) {
					r, err := trace.Open(c.Path)
					if err != nil {
						return nil, nil, err
					}
					return r, r.Close, nil
				},
				src: r, close: r.Close,
			}, nil
		},
	}, nil
}

// ChampSimWorkload declares a ChampSim-format trace file replay. Loop
// (default true) restarts the file when it ends — the importer's
// one-record lookahead spans the seam, so the looped stream stays
// control-flow continuous.
type ChampSimWorkload struct {
	Path string `json:"path"`
	Name string `json:"name,omitempty"`
	Loop *bool  `json:"loop,omitempty"`
}

func buildChampSim(c ChampSimWorkload) (Workload, error) {
	if c.Path == "" {
		return Workload{}, fmt.Errorf("workloadspec: champsim workload needs a path")
	}
	loop := c.Loop == nil || *c.Loop
	name := c.Name
	if name == "" {
		name = baseName(c.Path)
	}
	return Workload{
		Name: name,
		open: func() (trace.Source, error) {
			return trace.OpenChampSim(c.Path, loop)
		},
	}, nil
}

// fileLoop replays a file-backed finite source forever by reopening it
// when it ends. Reopening closes the exhausted reader first, so a looped
// replay holds one file handle at a time.
type fileLoop struct {
	open  func() (trace.Source, func() error, error)
	src   trace.Source
	close func() error
}

// Next returns the next instruction, reopening the file at end of stream.
func (l *fileLoop) Next() (trace.Instr, bool) {
	in, ok := l.src.Next()
	if ok {
		return in, true
	}
	return l.reopen()
}

// reopen restarts the underlying file; a replay that cannot be reopened
// (or is empty) ends the stream.
func (l *fileLoop) reopen() (trace.Instr, bool) {
	if l.close != nil {
		l.close()
	}
	src, close, err := l.open()
	if err != nil {
		l.src, l.close = exhausted{}, nil
		return trace.Instr{}, false
	}
	l.src, l.close = src, close
	return l.src.Next()
}

// Close releases the currently open file.
func (l *fileLoop) Close() error {
	if l.close == nil {
		return nil
	}
	err := l.close()
	l.src, l.close = exhausted{}, nil
	return err
}

// exhausted is a permanently empty Source.
type exhausted struct{}

func (exhausted) Next() (trace.Instr, bool) { return trace.Instr{}, false }

// baseName strips the directory and trace-file extensions from a path,
// yielding a display name ("dir/srv.champsim.gz" -> "srv").
func baseName(path string) string {
	name := path
	if i := strings.LastIndexAny(name, "/\\"); i >= 0 {
		name = name[i+1:]
	}
	for _, ext := range []string{".gz", ".champsim", ".ubst", ".trace"} {
		name = strings.TrimSuffix(name, ext)
	}
	if name == "" {
		name = "trace"
	}
	return name
}

// The built-in kinds, bound to their typed constructors; JSON specs and
// CLI shorthands arrive at the same builders through ResolveWorkload.
var (
	NewPresetWorkload   = RegisterWorkload("preset", buildPreset)
	NewConfigWorkload   = RegisterWorkload("config", buildConfig)
	NewMixWorkload      = RegisterWorkload("mix", buildMix)
	NewChampSimWorkload = RegisterWorkload("champsim", buildChampSim)
	NewTraceWorkload    = RegisterWorkload("trace", buildTrace)
)

// ParseWorkloadSpec translates a CLI workload shorthand into its
// declarative spec. Accepted shorthands:
//
//	server_003                 bare preset name (compatibility)
//	preset:server_003          explicit preset kind
//	mix:clients.yaml           multi-client mix file (YAML or JSON),
//	mix:@clients.yaml          inlined into the spec; '@' optional
//	champsim:trace.champsim.gz ChampSim trace replay
//	trace:a.ubst.gz            UBST trace replay
//
// A shorthand beginning with '{' is parsed as an inline JSON Spec, so
// anything expressible declaratively also works on a command line. Mix
// files are loaded at parse time and inlined, making the returned spec
// self-contained: its content hash covers the resolved clients, not a
// file path.
func ParseWorkloadSpec(name string) (Spec, error) {
	switch {
	case strings.HasPrefix(name, "{"):
		dec := json.NewDecoder(strings.NewReader(name))
		dec.DisallowUnknownFields()
		var spec Spec
		if err := dec.Decode(&spec); err != nil {
			return Spec{}, fmt.Errorf("workloadspec: inline workload spec: %w", err)
		}
		return spec, nil
	case strings.HasPrefix(name, "preset:"):
		return specOf("preset", PresetWorkload{Name: strings.TrimPrefix(name, "preset:")})
	case strings.HasPrefix(name, "mix:"):
		path := strings.TrimPrefix(strings.TrimPrefix(name, "mix:"), "@")
		cfg, err := LoadMixFile(path)
		if err != nil {
			return Spec{}, err
		}
		return specOf("mix", cfg)
	case strings.HasPrefix(name, "champsim:"):
		return specOf("champsim", ChampSimWorkload{Path: strings.TrimPrefix(name, "champsim:")})
	case strings.HasPrefix(name, "trace:"):
		return specOf("trace", TraceWorkload{Path: strings.TrimPrefix(name, "trace:")})
	case strings.HasPrefix(name, "ubst:"):
		return specOf("trace", TraceWorkload{Path: strings.TrimPrefix(name, "ubst:")})
	case name == "":
		return Spec{}, fmt.Errorf("workloadspec: empty workload name")
	default:
		// Bare names keep resolving as presets for compatibility.
		return specOf("preset", PresetWorkload{Name: name})
	}
}

// ParseWorkload resolves a CLI workload shorthand (or inline JSON spec,
// see ParseWorkloadSpec) to a Workload.
func ParseWorkload(name string) (Workload, error) {
	spec, err := ParseWorkloadSpec(name)
	if err != nil {
		return Workload{}, err
	}
	return ResolveWorkload(spec)
}

// MustWorkload is ParseWorkload panicking on error; for statically known
// workload names (tests, examples).
func MustWorkload(name string) Workload {
	w, err := ParseWorkload(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Run simulates a resolved workload on a design: generator-backed
// workloads go through sim.RunContext (preserving its construction
// diagnostics), source-backed ones open their stream and go through
// sim.RunSourceContext.
func Run(ctx context.Context, p sim.Params, w Workload, design string, factory sim.FrontendFactory) (sim.Result, error) {
	if cfg, ok := w.Config(); ok {
		return sim.RunContext(ctx, p, cfg, design, factory)
	}
	src, err := w.NewSource()
	if err != nil {
		return sim.Result{}, err
	}
	if c, ok := src.(interface{ Close() error }); ok {
		defer c.Close()
	}
	return sim.RunSourceContext(ctx, p, src, w.Name, design, factory)
}
