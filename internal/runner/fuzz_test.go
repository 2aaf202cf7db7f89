package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSpec feeds arbitrary bytes to LoadSpec as a sweep spec file.
// It must never panic, and a spec it returns without an error must pass
// Validate. Seeded with the example specs.
func FuzzLoadSpec(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no example specs (%v)", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadSpec(path)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("LoadSpec accepted a spec that fails Validate: %v", err)
		}
	})
}

// FuzzLoadDisk writes arbitrary bytes as the result record of a key.
// loadDisk must never panic and must accept only a record filed under
// that key, and a record it accepts must come back from saveDisk and
// loadDisk as the same record. The seeds are short records: the fuzzer
// minimizes every input that finds new coverage, which takes long on a
// long one.
func FuzzLoadDisk(f *testing.F) {
	const key = "k1"
	for _, seed := range []string{
		`{"key":"k1","workload":"w","design":"ubs","seconds":0.5,"result":{"workload":"w"}}`,
		`{"key":"k1","kind":"aux","aux":{"a":[1,2]}}`,
		`{"key":"k2","workload":"w"}`,
		`{"key":"k1","result":{"core":null}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore(t.TempDir())
		if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, ok := s.loadDisk(key)
		if !ok {
			return
		}
		if rec.Key != key {
			t.Fatalf("accepted a record filed under %q for key %q", rec.Key, key)
		}
		s.saveDisk(rec)
		again, ok := s.loadDisk(key)
		if !ok {
			t.Fatal("a saved record does not load back")
		}
		a, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("an accepted record does not encode: %v", err)
		}
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("record changed across saveDisk and loadDisk:\n before: %s\n after:  %s", a, b)
		}
	})
}
