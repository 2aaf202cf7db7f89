// Package ubslint assembles the repository's invariant analyzers — the
// go/analysis suite that compiles the simulator's methodological
// assumptions (single miss path, trace determinism, cancellable
// goroutines, lock discipline) into rules checked on every build. It
// keeps only the rules no runtime test covers; cmd/ubslint wires the
// suite into `go vet -vettool`, and the suite self-applies cleanly to
// this tree (see TestSelfApplication).
package ubslint

import (
	"golang.org/x/tools/go/analysis"

	"ubscache/internal/analysis/ctxleak"
	"ubscache/internal/analysis/determinism"
	"ubscache/internal/analysis/misspath"
	"ubscache/internal/analysis/mutexguard"
)

// Analyzers returns the full ubslint suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxleak.Analyzer,
		determinism.Analyzer,
		misspath.Analyzer,
		mutexguard.Analyzer,
	}
}
