// Package ubslint assembles the repository's invariant analyzers — the
// go/analysis suite that compiles the simulator's methodological
// assumptions (single miss path, trace determinism, allocation-free hot
// loops, consistent atomicity, checkpoint round-trip completeness) into
// rules checked on every build. The syntactic tier (five analyzers) is
// joined by a dataflow tier (wallclocktaint, ctxleak, mutexguard) that
// runs flow-sensitive fixpoints over each function's CFG. cmd/ubslint
// wires the suite into `go vet -vettool` and CI; the suite self-applies
// cleanly to this tree (see TestSuiteSelfApplication).
package ubslint

import (
	"golang.org/x/tools/go/analysis"

	"ubscache/internal/analysis/atomicfield"
	"ubscache/internal/analysis/ctxleak"
	"ubscache/internal/analysis/determinism"
	"ubscache/internal/analysis/hotpathalloc"
	"ubscache/internal/analysis/misspath"
	"ubscache/internal/analysis/mutexguard"
	"ubscache/internal/analysis/snapstate"
	"ubscache/internal/analysis/wallclocktaint"
)

// Analyzers returns the full ubslint suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfield.Analyzer,
		ctxleak.Analyzer,
		determinism.Analyzer,
		hotpathalloc.Analyzer,
		misspath.Analyzer,
		mutexguard.Analyzer,
		snapstate.Analyzer,
		wallclocktaint.Analyzer,
	}
}
