package ubslint_test

import (
	"os/exec"
	"strings"
	"testing"

	"ubscache/internal/analysis/linttest"
	"ubscache/internal/analysis/ubslint"
)

// TestSuite pins the analyzer roster so a dropped registration fails
// loudly rather than silently weakening CI.
func TestSuite(t *testing.T) {
	want := []string{"ctxleak", "determinism", "misspath", "mutexguard"}
	got := ubslint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}

// TestSelfApplication runs the full suite over the repository and
// asserts it is clean: every invariant the analyzers encode must hold
// on the tree that defines them.
func TestSelfApplication(t *testing.T) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	root := strings.TrimSpace(string(out))
	linttest.RunClean(t, root)
}
