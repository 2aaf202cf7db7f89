package workloadspec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixture reads a committed file relative to the repository root.
func fixture(f *testing.F, rel string) []byte {
	f.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzParseYAML: the mix-file YAML subset parser never panics, and an
// accepted document's JSON form re-decodes to the same JSON.
func FuzzParseYAML(f *testing.F) {
	clients := fixture(f, "examples/specs/clients.yaml")
	f.Add(clients)
	f.Add([]byte("name: x\nseed: -7\nclients:\n  -\n    preset: 'a''b'\n    weight: 1.5e3\n"))
	f.Add([]byte("- 1\n- \"two # not a comment\"\n- ~\n"))
	f.Add(bytes.ReplaceAll(clients, []byte("  "), []byte("\t")))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := parseYAML(data)
		if err != nil {
			return
		}
		j1, err := json.Marshal(v)
		if err != nil {
			// Scalars JSON cannot hold (NaN, ±Inf) reach LoadMixFile's
			// re-encoding step, which reports them as errors.
			return
		}
		dec := json.NewDecoder(bytes.NewReader(j1))
		dec.UseNumber()
		var back interface{}
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("JSON form %s does not decode: %v", j1, err)
		}
		j2, err := json.Marshal(back)
		if err != nil || !bytes.Equal(j1, j2) {
			t.Fatalf("JSON form does not round-trip:\n%s\n%s (%v)", j1, j2, err)
		}
	})
}

// FuzzParseWorkloadSpec: the workload shorthand grammar never panics,
// and a shorthand that resolves re-resolves from its canonical JSON Spec
// to an equal workload. File-backed shorthands are confined to a
// temporary directory holding the committed fixtures, so the fuzzer
// never opens a file outside it.
func FuzzParseWorkloadSpec(f *testing.F) {
	dir := f.TempDir()
	for _, name := range []string{"clients.yaml", "tiny.champsim"} {
		src := "examples/specs/clients.yaml"
		if name == "tiny.champsim" {
			src = "internal/trace/testdata/tiny.champsim"
		}
		if err := os.WriteFile(filepath.Join(dir, name), fixture(f, src), 0o644); err != nil {
			f.Fatal(err)
		}
	}
	for _, s := range []string{
		"server_003", "preset:server_003", "x86-server_001", "mix:clients.yaml",
		"mix:@clients.yaml", "champsim:tiny.champsim", "trace:a.ubst.gz", "ubst:a.ubst",
		`{"kind":"preset","config":{"name":"server_001"}}`,
		`{"kind":"config","config":{"Name":"c","Seed":3,"Functions":40}}`,
		`{"kind":"mix","config":{"seed":7,"clients":[{"preset":"server_001","weight":2,"arrival":{"process":"poisson"}},{"preset":"client_001","arrival":{"process":"gamma","cv":3}}]}}`,
		`{"kind":"trace","config":{"path":"a.ubst","loop":false}}`,
		"", "preset:", "mix:", "{",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		name = confine(dir, name)
		spec, err := ParseWorkloadSpec(name)
		if err != nil {
			return
		}
		j, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		if _, err := ParseWorkloadSpec(string(j)); err != nil {
			t.Fatalf("JSON form %s of accepted %q does not re-parse: %v", j, name, err)
		}
		if readsOutside(dir, spec) {
			return
		}
		w, err := ResolveWorkload(spec)
		if err != nil {
			return
		}
		canon, err := json.Marshal(w.Spec)
		if err != nil {
			t.Fatalf("canonical spec of %q does not encode: %v", name, err)
		}
		back, err := ParseWorkload(string(canon))
		if err != nil {
			t.Fatalf("canonical spec %s of %q does not resolve: %v", canon, name, err)
		}
		cfg, gen := w.Config()
		bcfg, bgen := back.Config()
		if back.Name != w.Name || back.Ident() != w.Ident() || !reflect.DeepEqual(back.Spec, w.Spec) ||
			gen != bgen || cfg != bcfg {
			t.Fatalf("%q and its canonical spec %s resolve differently:\n%+v\n%+v", name, canon, w, back)
		}
	})
}

// confine rewrites a file-backed shorthand's path to a file of the same
// base name in dir.
func confine(dir, name string) string {
	for _, prefix := range []string{"mix:", "champsim:", "trace:", "ubst:"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			rest = strings.TrimPrefix(rest, "@")
			return prefix + filepath.Join(dir, filepath.Base(rest))
		}
	}
	return name
}

// readsOutside reports whether resolving spec would read a file outside
// dir: an inline mix spec names its file in config.path.
func readsOutside(dir string, spec Spec) bool {
	var c struct{ Path string }
	json.Unmarshal(spec.Config, &c)
	return spec.Kind == "mix" && c.Path != "" && filepath.Dir(c.Path) != dir
}
