package runner

import (
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
