package workloadspec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ubscache/internal/trace"
	"ubscache/internal/workload"
)

// TestWorkloadKinds pins the registry roster, the workload-side mirror of
// sim.DesignKinds: a dropped registration fails loudly.
func TestWorkloadKinds(t *testing.T) {
	want := []string{"champsim", "config", "mix", "preset", "trace"}
	if got := WorkloadKinds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("WorkloadKinds() = %v, want %v", got, want)
	}
}

// TestParseWorkloadSpec checks the shorthand grammar: bare preset names,
// kind prefixes, and inline JSON all resolve through the registry.
func TestParseWorkloadSpec(t *testing.T) {
	cases := []struct {
		in   string
		kind string
	}{
		{"server_003", "preset"},
		{"preset:server_003", "preset"},
		{`{"kind":"preset","config":{"name":"server_003"}}`, "preset"},
		{"champsim:foo.champsim", "champsim"},
		{"trace:foo.ubst.gz", "trace"},
		{"ubst:foo.ubst", "trace"},
	}
	for _, c := range cases {
		spec, err := ParseWorkloadSpec(c.in)
		if err != nil {
			t.Errorf("ParseWorkloadSpec(%q): %v", c.in, err)
			continue
		}
		if spec.Kind != c.kind {
			t.Errorf("ParseWorkloadSpec(%q).Kind = %q, want %q", c.in, spec.Kind, c.kind)
		}
	}
	for _, in := range []string{
		"",
		`{"kind":"preset","config":{"name":"server_003"}} trailing garbage`,
		`{"kind":"preset","config":{"name":"server_003"}}{}`,
	} {
		if _, err := ParseWorkloadSpec(in); err == nil {
			t.Errorf("ParseWorkloadSpec(%q) succeeded, want error", in)
		}
	}
}

// TestPresetSymmetry pins the compatibility contract: a bare name, the
// preset: prefix, and the declarative spec resolve to the same
// generator-backed workload as the legacy workload.ByName path.
func TestPresetSymmetry(t *testing.T) {
	legacy, err := workload.ByName("server_003")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"server_003", "preset:server_003"} {
		w, err := ParseWorkload(in)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", in, err)
		}
		cfg, ok := w.Config()
		if !ok {
			t.Fatalf("ParseWorkload(%q) is not generator-backed", in)
		}
		if !reflect.DeepEqual(cfg, legacy) {
			t.Errorf("ParseWorkload(%q) config differs from workload.ByName", in)
		}
		if want := FromConfig(legacy).Ident(); w.Ident() != want {
			t.Errorf("Ident() = %q, want %q", w.Ident(), want)
		}
	}
}

// TestResolveWorkloadStrict pins the error surface shared with the design
// registry: unknown kinds and unknown config fields are rejected.
func TestResolveWorkloadStrict(t *testing.T) {
	if _, err := ResolveWorkload(Spec{Kind: "nope"}); err == nil {
		t.Error("unknown kind resolved, want error")
	}
	spec := Spec{Kind: "preset", Config: []byte(`{"name":"server_003","bogus":1}`)}
	if _, err := ResolveWorkload(spec); err == nil {
		t.Error("unknown config field accepted, want error")
	}
}

// TestMixDeterminism is the core mix contract: same spec + seed, two
// independent sources, byte-identical interleaved streams.
func TestMixDeterminism(t *testing.T) {
	spec := Spec{Kind: "mix", Config: []byte(`{
		"seed": 7,
		"clients": [
			{"preset": "server_001", "weight": 2, "arrival": {"process": "poisson", "burst": 500}},
			{"preset": "client_001", "arrival": {"process": "gamma", "cv": 3, "burst": 300}},
			{"preset": "spec_001", "arrival": {"burst": 400}}
		]
	}`)}
	w, err := ResolveWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Config(); ok {
		t.Fatal("mix workload claims to be generator-backed")
	}
	a, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		ia, oka := a.Next()
		ib, okb := b.Next()
		if oka != okb || ia != ib {
			t.Fatalf("streams diverge at instruction %d: %+v vs %+v", i, ia, ib)
		}
		if !oka {
			t.Fatal("mix stream ended (generator-backed clients are endless)")
		}
		if err := trace.Validate(ia); err != nil {
			t.Fatalf("instruction %d invalid: %v", i, err)
		}
	}
}

// TestMixSeedDecorrelation: changing only the mix seed must change the
// interleaving.
func TestMixSeedDecorrelation(t *testing.T) {
	mk := func(seed int64) trace.Source {
		t.Helper()
		cfg, _ := json.Marshal(MixConfig{Seed: seed, Clients: []ClientSpec{
			{Preset: "server_001", Arrival: ArrivalSpec{Process: ArrivalPoisson, Burst: 200}},
			{Preset: "client_001", Arrival: ArrivalSpec{Process: ArrivalPoisson, Burst: 200}},
		}})
		w, err := ResolveWorkload(Spec{Kind: "mix", Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		src, err := w.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	a, b := mk(1), mk(2)
	same := true
	for i := 0; i < 5_000; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia != ib {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical streams")
	}
}

// TestMixValidation pins the client-spec error surface.
func TestMixValidation(t *testing.T) {
	bad := []string{
		`{"clients": []}`,
		`{"clients": [{"weight": 1}]}`,
		`{"clients": [{"preset": "server_001", "config": {"name": "x"}}]}`,
		`{"clients": [{"preset": "no_such_preset"}]}`,
		`{"clients": [{"preset": "server_001", "arrival": {"process": "uniform"}}]}`,
		`{"clients": [{"preset": "server_001", "arrival": {"burst": 0.25}}]}`,
		`{"clients": [{"preset": "server_001", "weight": -1}]}`,
	}
	for _, cfg := range bad {
		if _, err := ResolveWorkload(Spec{Kind: "mix", Config: []byte(cfg)}); err == nil {
			t.Errorf("mix config %s resolved, want error", cfg)
		}
	}
}

// TestMixFileYAMLvsJSON: the same mix declared in YAML and JSON resolves
// to identical canonical specs (and so identical content-hash keys).
func TestMixFileYAMLvsJSON(t *testing.T) {
	dir := t.TempDir()
	yamlPath := filepath.Join(dir, "m.yaml")
	jsonPath := filepath.Join(dir, "m.json")
	yamlSrc := `# comment
name: m
seed: 9
clients:
  - id: a
    preset: server_001
    weight: 2
    arrival:
      process: poisson
  - preset: client_001
`
	jsonSrc := `{
		"name": "m", "seed": 9,
		"clients": [
			{"id": "a", "preset": "server_001", "weight": 2, "arrival": {"process": "poisson"}},
			{"preset": "client_001"}
		]
	}`
	if err := os.WriteFile(yamlPath, []byte(yamlSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, []byte(jsonSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	wy, err := ParseWorkload("mix:" + yamlPath)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := ParseWorkload("mix:@" + jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(wy.Spec.Config) != string(wj.Spec.Config) {
		t.Errorf("canonical specs differ:\nyaml: %s\njson: %s", wy.Spec.Config, wj.Spec.Config)
	}
	if wy.Name != "m" || wj.Name != "m" {
		t.Errorf("names = %q, %q, want m", wy.Name, wj.Name)
	}
}

// TestExampleMixFile keeps the committed example loadable: the README
// points users at it and CI sweeps it.
func TestExampleMixFile(t *testing.T) {
	w, err := ParseWorkload("mix:../../examples/specs/clients.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "frontend-mix" {
		t.Errorf("Name = %q, want frontend-mix", w.Name)
	}
	var cfg MixConfig
	if err := json.Unmarshal(w.Spec.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Clients) != 3 {
		t.Fatalf("example mix has %d clients, want 3", len(cfg.Clients))
	}
	if cfg.Path != "" {
		t.Error("resolved spec still references the file path; clients must be inlined")
	}
	src, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000; i++ {
		in, ok := src.Next()
		if !ok {
			t.Fatal("example mix stream ended")
		}
		if err := trace.Validate(in); err != nil {
			t.Fatalf("instruction %d invalid: %v", i, err)
		}
	}
}

// TestChampSimWorkload resolves the committed decoder fixture through the
// registry and checks loop defaulting.
func TestChampSimWorkload(t *testing.T) {
	w, err := ParseWorkload("champsim:../trace/testdata/tiny.champsim")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "tiny" {
		t.Errorf("Name = %q, want tiny (path basename)", w.Name)
	}
	src, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := src.(interface{ Close() error }); ok {
		defer c.Close()
	}
	// Loop defaults to true: the 14-record fixture must keep producing
	// well past one pass.
	for i := 0; i < 100; i++ {
		in, ok := src.Next()
		if !ok {
			t.Fatalf("looping champsim stream ended at %d", i)
		}
		if err := trace.Validate(in); err != nil {
			t.Fatalf("instruction %d invalid: %v", i, err)
		}
	}

	// Loop off: the stream is finite (13 instructions: the final record
	// has no successor).
	spec := Spec{Kind: "champsim", Config: []byte(`{"path":"../trace/testdata/tiny.champsim","loop":false}`)}
	wf, err := ResolveWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	srcf, err := wf.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := srcf.(interface{ Close() error }); ok {
		defer c.Close()
	}
	n := 0
	for {
		if _, ok := srcf.Next(); !ok {
			break
		}
		n++
	}
	if n != 13 {
		t.Errorf("non-loop decode produced %d instructions, want 13", n)
	}
}

// TestWorkloadIdent pins the exact identity: a generator-backed workload
// is its materialised config's canonical spec, whatever spelling built
// it, so two configs sharing a Name but not a Seed differ; source-backed
// ones carry their canonical spec.
func TestWorkloadIdent(t *testing.T) {
	p := MustWorkload("server_003")
	cfg, _ := p.Config()
	if !strings.HasPrefix(p.Ident(), `config:{"Name":"server_003",`) || p.Ident() != FromConfig(cfg).Ident() {
		t.Errorf("preset Ident = %q, want the config spec of %+v", p.Ident(), cfg)
	}
	if lazy := (Workload{Name: cfg.Name, cfg: &cfg}); lazy.Ident() != p.Ident() {
		t.Errorf("Ident computed on demand = %q, want %q", lazy.Ident(), p.Ident())
	}
	twin := cfg
	twin.Seed++
	if FromConfig(twin).Ident() == p.Ident() {
		t.Errorf("configs differing only in Seed share Ident %q", p.Ident())
	}
	c, err := ResolveWorkload(Spec{Kind: "champsim", Config: []byte(`{"path":"x.champsim"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ident() != `champsim:{"path":"x.champsim"}` {
		t.Errorf("champsim Ident = %q, want champsim:<config>", c.Ident())
	}
}

// TestParseYAMLErrors pins the subset-parser's rejection surface: tabs,
// duplicate keys, and flow syntax fail with positioned errors instead of
// silently misparsing.
func TestParseYAMLErrors(t *testing.T) {
	bad := []string{
		"a:\n\tb: 1",
		"a: 1\na: 2",
		"a: {b: 1}",
		"a: [1, 2]",
	}
	for _, src := range bad {
		if _, err := parseYAML([]byte(src)); err == nil {
			t.Errorf("parseYAML(%q) succeeded, want error", src)
		}
	}
}

// TestParseYAMLScalars pins scalar typing through the JSON round-trip.
func TestParseYAMLScalars(t *testing.T) {
	v, err := parseYAML([]byte(`
i: 42
f: 2.5
b: true
s: hello world
q: "a: b # not a comment"
n: null
`))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := v.(map[string]interface{})
	if !ok {
		t.Fatalf("parseYAML returned %T, want map", v)
	}
	want := map[string]interface{}{
		"i": int64(42), "f": 2.5, "b": true,
		"s": "hello world", "q": "a: b # not a comment", "n": nil,
	}
	for k, wv := range want {
		if !reflect.DeepEqual(m[k], wv) {
			t.Errorf("key %q = %#v (%T), want %#v", k, m[k], m[k], wv)
		}
	}
}

// TestSourcesAllocFree pins the per-instruction path of the source-backed
// workloads (the mix interleaver and the looping file replay) to 0 allocs
// per Next at steady state. The file is long enough that the measured
// window is a single pass: the reopen at each wrap is a per-pass cost.
func TestSourcesAllocFree(t *testing.T) {
	const runs = 10_000
	gen, err := MustWorkload("server_001").NewSource()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pass.ubst")
	w, err := trace.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*runs; i++ {
		in, _ := gen.Next()
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, spec string
		warm       int // Next calls before measuring
	}{
		{"mix", "mix:../../examples/specs/clients.yaml", 50_000}, // grow the clients' call stacks
		{"fileLoop", "trace:" + path, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wl, err := ParseWorkload(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			src, err := wl.NewSource()
			if err != nil {
				t.Fatal(err)
			}
			if cl, ok := src.(interface{ Close() error }); ok {
				defer cl.Close()
			}
			for i := 0; i < c.warm; i++ {
				src.Next()
			}
			ok := true
			allocs := testing.AllocsPerRun(runs, func() {
				_, more := src.Next()
				ok = ok && more
			})
			if !ok {
				t.Fatal("stream ended")
			}
			if allocs != 0 {
				t.Errorf("%T.Next allocates %.1f allocs/instruction, want 0", src, allocs)
			}
		})
	}
}
