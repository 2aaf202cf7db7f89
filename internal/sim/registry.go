package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ubscache/internal/cache"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/ubs"
)

// Design couples a resolved design name with the factory that builds it.
// It is the unit every consumer traffics in: the experiment harness
// compares Designs, the runner schedules them, and the commands print
// their names. Construct one through the registry — ResolveDesign for a
// declarative DesignSpec, ParseDesign for a CLI shorthand, or the typed
// New*Design constructors — rather than wiring factories by hand.
type Design struct {
	Name string
	// ID identifies the simulated machine: the design kind followed by
	// the canonical JSON of its resolved frontend configuration, with the
	// display name cleared. Designs with equal IDs simulate identically
	// whatever their names ("ubs" and "ubs:32" are one machine), and
	// designs that share a name but not an ID are different machines.
	// Every registry-built Design has one; a hand-built Design leaves it
	// empty and is told apart by its name alone.
	ID      string
	Factory FrontendFactory
}

// DesignSpec is the declarative, JSON-serializable form of a design: a
// registered kind plus its kind-specific configuration. Specs appear in
// sweep-spec files ("designs": [...]) and resolve through ResolveDesign:
//
//	{"kind": "ubs", "config": {"kb": 64}}
//	{"kind": "conv", "config": {"policy": "ghrp"}}
type DesignSpec struct {
	Kind   string          `json:"kind"`
	Config json.RawMessage `json:"config,omitempty"`
}

// designKinds is the registration table mapping a kind to its config
// decoder + builder.
var designKinds = map[string]func(json.RawMessage) (Design, error){}

// RegisterDesign registers a design kind whose configuration decodes into
// C (unknown JSON fields are rejected; an absent config decodes the zero
// C). It returns build itself, so packages can bind a typed constructor
// to the same function the registry resolves through:
//
//	var NewMyDesign = sim.RegisterDesign("mydesign", buildMyDesign)
//
// Registering a duplicate kind panics (a wiring error, caught at init).
func RegisterDesign[C any](kind string, build func(C) (Design, error)) func(C) (Design, error) {
	if _, dup := designKinds[kind]; dup {
		panic(fmt.Sprintf("sim: design kind %q registered twice", kind))
	}
	designKinds[kind] = func(raw json.RawMessage) (Design, error) {
		var cfg C
		if len(raw) > 0 {
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&cfg); err != nil {
				return Design{}, fmt.Errorf("sim: design kind %q: %w", kind, err)
			}
		}
		return build(cfg)
	}
	return build
}

// DesignKinds lists the registered kinds, sorted.
func DesignKinds() []string {
	out := make([]string, 0, len(designKinds))
	for k := range designKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ResolveDesign materialises a DesignSpec through the registration table.
func ResolveDesign(spec DesignSpec) (Design, error) {
	build, ok := designKinds[spec.Kind]
	if !ok {
		return Design{}, fmt.Errorf("sim: unknown design kind %q (have: %s)",
			spec.Kind, strings.Join(DesignKinds(), ", "))
	}
	return build(spec.Config)
}

// ConvDesign declares a conventional fixed-64B-block L1-I. The zero value
// is the Table I 32KB baseline; KB scales the capacity, explicit geometry
// fields override it, Policy selects replacement, ACIC enables admission
// control, and Unit sets the accessed-bytes accounting granularity.
type ConvDesign struct {
	Name   string `json:"name,omitempty"`
	KB     int    `json:"kb,omitempty"`
	Sets   int    `json:"sets,omitempty"`
	Ways   int    `json:"ways,omitempty"`
	Lat    uint64 `json:"lat,omitempty"`
	MSHRs  int    `json:"mshrs,omitempty"`
	Policy string `json:"policy,omitempty"` // "", "lru", or "ghrp"
	ACIC   bool   `json:"acic,omitempty"`
	Unit   int    `json:"unit,omitempty"`
}

func buildConvDesign(d ConvDesign) (Design, error) {
	cfg := icache.Baseline32K()
	if d.KB > 0 {
		cfg = icache.ConvSized(d.KB << 10)
	}
	if d.Sets > 0 {
		cfg.Sets = d.Sets
	}
	if d.Ways > 0 {
		cfg.Ways = d.Ways
	}
	if d.Lat > 0 {
		cfg.Lat = d.Lat
	}
	if d.MSHRs > 0 {
		cfg.MSHRs = d.MSHRs
	}
	switch d.Policy {
	case "", "lru":
	case "ghrp":
		cfg.NewPolicy = cache.NewGHRP
		if d.Name == "" {
			cfg.Name = "ghrp"
		}
	default:
		return Design{}, fmt.Errorf("sim: conv policy %q not lru or ghrp", d.Policy)
	}
	if d.ACIC {
		cfg.ACIC = true
		if d.Name == "" && d.Policy == "" {
			cfg.Name = "acic"
		}
	}
	if d.Unit > 0 {
		cfg.Unit = d.Unit
	}
	if d.Name != "" {
		cfg.Name = d.Name
	}
	// The policy is a func, so the ID carries its name; "lru" is the
	// default and encodes as it.
	policy := d.Policy
	if policy == "lru" {
		policy = ""
	}
	id := struct {
		Sets, Ways, BlockSize int
		Lat                   uint64
		MSHRs, Unit           int
		ACIC                  bool
		Policy                string
	}{cfg.Sets, cfg.Ways, cfg.BlockSize, cfg.Lat, cfg.MSHRs, cfg.Unit, cfg.ACIC, policy}
	return newDesign("conv", cfg.Name, id, func(h *mem.Hierarchy) (icache.Frontend, error) {
		return icache.NewConventional(cfg, h)
	})
}

// UBSDesign declares a UBS cache. The zero value is the Table II default;
// KB scales the budget (Figure 11), Predictor picks a Figure 15 predictor
// organisation, Ways/WayVariant a Figure 16 way mix, OffsetGranule=1 the
// byte-granular x86 mode, and the congruence flags enable the §VI-H
// extensions. Custom supplies a fully explicit configuration instead.
type UBSDesign struct {
	Name            string      `json:"name,omitempty"`
	KB              int         `json:"kb,omitempty"`
	Predictor       string      `json:"predictor,omitempty"`
	Ways            int         `json:"ways,omitempty"`
	WayVariant      int         `json:"way_variant,omitempty"`
	OffsetGranule   int         `json:"offset_granule,omitempty"`
	DeadBlockWays   bool        `json:"dead_block_ways,omitempty"`
	AdmissionFilter bool        `json:"admission_filter,omitempty"`
	Custom          *ubs.Config `json:"custom,omitempty"`
}

func buildUBSDesign(d UBSDesign) (Design, error) {
	var cfg ubs.Config
	if d.Custom != nil {
		cfg = *d.Custom
	} else {
		cfg = ubs.DefaultConfig()
		if d.KB > 0 {
			cfg = ubs.Sized(d.KB)
		}
		if d.Ways > 0 {
			variant := d.WayVariant
			if variant == 0 {
				variant = 1
			}
			wc, err := ubs.WithWays(d.Ways, variant)
			if err != nil {
				return Design{}, err
			}
			cfg.WaySizes, cfg.Name = wc.WaySizes, wc.Name
		}
		if d.Predictor != "" {
			pc, err := ubs.WithPredictor(d.Predictor)
			if err != nil {
				return Design{}, err
			}
			cfg.PredictorSets, cfg.PredictorWays = pc.PredictorSets, pc.PredictorWays
			cfg.PredictorFIFO, cfg.Name = pc.PredictorFIFO, pc.Name
		}
		if d.OffsetGranule > 0 {
			cfg.OffsetGranule = d.OffsetGranule
		}
		if d.DeadBlockWays {
			cfg.DeadBlockWays = true
		}
		if d.AdmissionFilter {
			cfg.AdmissionFilter = true
		}
	}
	if d.Name != "" {
		cfg.Name = d.Name
	}
	if err := cfg.Validate(); err != nil {
		return Design{}, err
	}
	id := cfg
	id.Name = ""
	return newDesign("ubs", cfg.Name, id, func(h *mem.Hierarchy) (icache.Frontend, error) {
		return ubs.New(cfg, h)
	})
}

// SmallBlockDesign declares the Figure 12 small-block baseline. BlockSize
// 16 (the default) and 32 select the paper's configurations; 64 selects
// the degenerate one-chunk-per-block variant used as a differential
// baseline against Conventional. Custom supplies a fully explicit
// configuration instead.
type SmallBlockDesign struct {
	Name      string                   `json:"name,omitempty"`
	BlockSize int                      `json:"block_size,omitempty"` // 16, 32, or 64
	BufferCap *int                     `json:"buffer_cap,omitempty"`
	Custom    *icache.SmallBlockConfig `json:"custom,omitempty"`
}

func buildSmallBlockDesign(d SmallBlockDesign) (Design, error) {
	var cfg icache.SmallBlockConfig
	switch {
	case d.Custom != nil:
		cfg = *d.Custom
	default:
		switch d.BlockSize {
		case 0, 16:
			cfg = icache.SmallBlock16()
		case 32:
			cfg = icache.SmallBlock32()
		case 64:
			cfg = icache.SmallBlockConfig{Name: "conv-64B-smallblock", BlockSize: 64,
				Sets: 64, Ways: 8, Lat: 4, MSHRs: 8}
		default:
			return Design{}, fmt.Errorf("sim: smallblock block_size %d not 16, 32, or 64", d.BlockSize)
		}
		if d.BufferCap != nil {
			cfg.BufferCap = *d.BufferCap
		}
	}
	if d.Name != "" {
		cfg.Name = d.Name
	}
	id := cfg
	id.Name = ""
	return newDesign("smallblock", cfg.Name, id, func(h *mem.Hierarchy) (icache.Frontend, error) {
		return icache.NewSmallBlock(cfg, h)
	})
}

// DistillDesign declares the Figure 13 Line Distillation baseline; the
// zero value is the default 32KB-budget split. Custom supplies a fully
// explicit configuration instead.
type DistillDesign struct {
	Name   string                `json:"name,omitempty"`
	Custom *icache.DistillConfig `json:"custom,omitempty"`
}

func buildDistillDesign(d DistillDesign) (Design, error) {
	cfg := icache.DefaultDistill()
	if d.Custom != nil {
		cfg = *d.Custom
	}
	if d.Name != "" {
		cfg.Name = d.Name
	}
	id := cfg
	id.Name = ""
	return newDesign("distill", cfg.Name, id, func(h *mem.Hierarchy) (icache.Frontend, error) {
		return icache.NewDistill(cfg, h)
	})
}

// newDesign builds a registry Design whose ID is kind followed by the
// canonical JSON of idCfg, the resolved config with its name cleared.
func newDesign(kind, name string, idCfg interface{}, factory FrontendFactory) (Design, error) {
	raw, err := json.Marshal(idCfg)
	if err != nil {
		return Design{}, fmt.Errorf("sim: %s design %q: %w", kind, name, err)
	}
	return Design{Name: name, ID: kind + string(raw), Factory: factory}, nil
}

// The built-in kinds, bound to their typed constructors: code that knows
// the config at compile time calls these directly; JSON specs and CLI
// shorthands arrive at the same builders through ResolveDesign.
var (
	NewConvDesign       = RegisterDesign("conv", buildConvDesign)
	NewUBSDesign        = RegisterDesign("ubs", buildUBSDesign)
	NewSmallBlockDesign = RegisterDesign("smallblock", buildSmallBlockDesign)
	NewDistillDesign    = RegisterDesign("distill", buildDistillDesign)
)

// specOf marshals a typed design config into its DesignSpec.
func specOf(kind string, cfg interface{}) (DesignSpec, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return DesignSpec{}, fmt.Errorf("sim: encoding %s design: %w", kind, err)
	}
	if string(raw) == "{}" {
		raw = nil
	}
	return DesignSpec{Kind: kind, Config: raw}, nil
}

// ParseDesignSpec translates a CLI design shorthand into its declarative
// spec. Accepted shorthands:
//
//	conv:<KB> conv32 conv64   conventional caches by capacity
//	ghrp acic                 32KB baseline + GHRP replacement / ACIC admission
//	ubs ubs:<KB>              Table II UBS, optionally rescaled
//	ubs-pred-<name>           Figure 15 predictor organisations
//	ubs-<N>way-c<V>           Figure 16 way mixes
//	smallblock16 smallblock32 Figure 12 small-block baselines (+smallblock64)
//	distill                   Line Distillation
//
// A shorthand beginning with '{' is parsed as an inline JSON DesignSpec,
// so anything expressible declaratively also works on a command line.
func ParseDesignSpec(name string) (DesignSpec, error) {
	switch {
	case strings.HasPrefix(name, "{"):
		dec := json.NewDecoder(strings.NewReader(name))
		dec.DisallowUnknownFields()
		var spec DesignSpec
		if err := dec.Decode(&spec); err != nil {
			return DesignSpec{}, fmt.Errorf("sim: inline design spec: %w", err)
		}
		if dec.Decode(new(json.RawMessage)) != io.EOF {
			return DesignSpec{}, fmt.Errorf("sim: inline design spec: trailing data after the JSON value")
		}
		return spec, nil
	case name == "conv32" || name == "conv:32":
		return specOf("conv", ConvDesign{KB: 32})
	case name == "conv64" || name == "conv:64":
		return specOf("conv", ConvDesign{KB: 64})
	case strings.HasPrefix(name, "conv:"):
		kb, err := strconv.Atoi(strings.TrimPrefix(name, "conv:"))
		if err != nil {
			return DesignSpec{}, fmt.Errorf("sim: bad conv size %q", name)
		}
		return specOf("conv", ConvDesign{KB: kb})
	case name == "ghrp":
		return specOf("conv", ConvDesign{Policy: "ghrp"})
	case name == "acic":
		return specOf("conv", ConvDesign{ACIC: true})
	case name == "ubs":
		return specOf("ubs", UBSDesign{})
	case strings.HasPrefix(name, "ubs:"):
		kb, err := strconv.Atoi(strings.TrimPrefix(name, "ubs:"))
		if err != nil {
			return DesignSpec{}, fmt.Errorf("sim: bad ubs size %q", name)
		}
		return specOf("ubs", UBSDesign{KB: kb})
	case strings.HasPrefix(name, "ubs-pred-"):
		return specOf("ubs", UBSDesign{Predictor: strings.TrimPrefix(name, "ubs-pred-")})
	case name == "smallblock16":
		return specOf("smallblock", SmallBlockDesign{})
	case name == "smallblock32":
		return specOf("smallblock", SmallBlockDesign{BlockSize: 32})
	case name == "smallblock64":
		return specOf("smallblock", SmallBlockDesign{BlockSize: 64})
	case name == "distill":
		return specOf("distill", DistillDesign{})
	}
	var ways, variant int
	if n, _ := fmt.Sscanf(name, "ubs-%dway-c%d", &ways, &variant); n == 2 {
		return specOf("ubs", UBSDesign{Ways: ways, WayVariant: variant})
	}
	return DesignSpec{}, fmt.Errorf("sim: unknown design %q", name)
}

// ParseDesign resolves a CLI design shorthand (or inline JSON spec, see
// ParseDesignSpec) to a Design.
func ParseDesign(name string) (Design, error) {
	spec, err := ParseDesignSpec(name)
	if err != nil {
		return Design{}, err
	}
	return ResolveDesign(spec)
}

// MustDesign is ParseDesign panicking on error; for statically known
// design names (experiment tables, examples).
func MustDesign(name string) Design {
	d, err := ParseDesign(name)
	if err != nil {
		panic(err)
	}
	return d
}
