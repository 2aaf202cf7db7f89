package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"ubscache/internal/mem"
)

func TestParseDesignShorthands(t *testing.T) {
	cases := []struct{ in, name string }{
		{"conv32", "conv-32KB"},
		{"conv:32", "conv-32KB"},
		{"conv64", "conv-64KB"},
		{"conv:16", "conv-16KB"},
		{"conv:192", "conv-192KB"},
		{"ghrp", "ghrp"},
		{"acic", "acic"},
		{"ubs", "ubs"},
		{"ubs:64", "ubs-64KB"},
		{"ubs-pred-assoc8-fifo", "ubs-pred-assoc8-fifo"},
		{"ubs-14way-c2", "ubs-14way-c2"},
		{"smallblock16", "conv-16B-block"},
		{"smallblock32", "conv-32B-block"},
		{"smallblock64", "conv-64B-smallblock"},
		{"distill", "line-distill"},
		{`{"kind":"ubs","config":{"kb":64}}`, "ubs-64KB"},
		{`{"kind":"conv","config":{"policy":"ghrp"}}`, "ghrp"},
	}
	for _, c := range cases {
		d, err := ParseDesign(c.in)
		if err != nil {
			t.Errorf("ParseDesign(%q): %v", c.in, err)
			continue
		}
		if d.Name != c.name {
			t.Errorf("ParseDesign(%q).Name = %q, want %q", c.in, d.Name, c.name)
		}
		if d.Factory == nil {
			t.Errorf("ParseDesign(%q): nil factory", c.in)
		}
	}
}

func TestParseDesignErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"nonsense",
		"conv:notanumber",
		"ubs-pred-bogus",
		"ubs-11way-c9",
		`{"kind":"bogus"}`,
		`{"kind":"conv","config":{"unknown_field":1}}`,
		`{"kind":"conv","config":{"policy":"mru"}}`,
		`{"kind":"ubs"} trailing garbage`,
		`{"kind":"ubs"}{"kind":"conv"}`,
	} {
		if _, err := ParseDesign(in); err == nil {
			t.Errorf("ParseDesign(%q) accepted", in)
		}
	}
}

func TestDesignKinds(t *testing.T) {
	kinds := DesignKinds()
	want := []string{"conv", "distill", "smallblock", "ubs"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

func TestRegisterDesignDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterDesign("conv", buildConvDesign)
}

// TestRegistryMatchesDeprecatedFactories proves the registry resolves to
// the same frontends the deprecated sim.*Factory wiring produced: same
// design name, same construction outcome over a fresh hierarchy.
func TestRegistryMatchesDeprecatedFactories(t *testing.T) {
	for _, name := range []string{"conv:32", "conv:64", "ubs", "smallblock16", "distill", "ghrp", "acic"} {
		d, err := ParseDesign(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h, err := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		if err != nil {
			t.Fatal(err)
		}
		fe, err := d.Factory(h)
		if err != nil {
			t.Fatalf("%s: factory: %v", name, err)
		}
		if got := fe.Name(); got != d.Name {
			t.Errorf("%s: frontend name %q != design name %q", name, got, d.Name)
		}
	}
}

// TestDesignSpecRoundTrip pins that ParseDesignSpec output is plain
// serializable JSON: encode -> decode -> resolve reproduces the design.
func TestDesignSpecRoundTrip(t *testing.T) {
	spec, err := ParseDesignSpec("ubs-14way-c2")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"ubs"`) {
		t.Fatalf("encoded spec %s lacks kind", raw)
	}
	var back DesignSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	d, err := ResolveDesign(back)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "ubs-14way-c2" {
		t.Fatalf("round-tripped design = %q", d.Name)
	}
	// A spec with no config stays minimal.
	spec, err = ParseDesignSpec("ubs")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Config != nil {
		t.Fatalf("default ubs spec config = %s, want none", spec.Config)
	}
}

func TestUBSDesignCustomAndValidation(t *testing.T) {
	d, err := NewUBSDesign(UBSDesign{KB: 64, Name: "renamed"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "renamed" {
		t.Fatalf("explicit name not applied: %q", d.Name)
	}
	if _, err := NewUBSDesign(UBSDesign{Ways: 11}); err == nil {
		t.Fatal("unknown way count accepted")
	}
	if _, err := NewSmallBlockDesign(SmallBlockDesign{BlockSize: 48}); err == nil {
		t.Fatal("48B small block accepted")
	}
}
