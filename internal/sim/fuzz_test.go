package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseDesign: the design shorthand grammar never panics, and a
// shorthand that resolves re-resolves from its JSON DesignSpec to a
// design of the same name. Designs are resolved, never built: a fuzzed
// geometry must not allocate its cache.
func FuzzParseDesign(f *testing.F) {
	for _, s := range []string{
		"conv:32", "conv32", "conv64", "conv:16", "ubs", "ubs:64", "ubs-pred-dm128",
		"ubs-6way-c2", "smallblock16", "smallblock32", "smallblock64", "distill",
		"ghrp", "acic", `{"kind":"conv","config":{"kb":64,"policy":"ghrp"}}`,
		"conv:", "ubs:-1", "ubs-0way-c0", "{",
	} {
		f.Add(s)
	}
	// The declarative designs of the committed sweep spec.
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "designs.json"))
	if err != nil {
		f.Fatal(err)
	}
	var spec struct{ Designs []json.RawMessage }
	if err := json.Unmarshal(data, &spec); err != nil || len(spec.Designs) == 0 {
		f.Fatalf("designs.json: %v", err)
	}
	for _, d := range spec.Designs {
		var b bytes.Buffer
		if err := json.Compact(&b, d); err != nil {
			f.Fatal(err)
		}
		f.Add(b.String())
	}
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := ParseDesignSpec(name)
		if err != nil {
			return
		}
		j, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		back, err := ParseDesignSpec(string(j))
		if err != nil {
			t.Fatalf("JSON form %s of accepted %q does not re-parse: %v", j, name, err)
		}
		if j2, err := json.Marshal(back); err != nil || !bytes.Equal(j, j2) {
			t.Fatalf("%q: JSON form %s re-parses to %s (%v)", name, j, j2, err)
		}
		d, err := ResolveDesign(spec)
		if err != nil {
			return
		}
		if d.Factory == nil {
			t.Fatalf("%q resolved without a factory", name)
		}
		db, err := ResolveDesign(back)
		if err != nil || db.Name != d.Name {
			t.Fatalf("%q resolves to %q but its JSON form %s to %q (%v)", name, d.Name, j, db.Name, err)
		}
	})
}
