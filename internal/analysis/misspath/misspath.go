// Package misspath enforces the repository's single-miss-path invariant
// as a type-based rule: the MSHR-lookup / full-stall / hierarchy-fetch /
// MSHR-insert sequence is owned by mem.FetchEngine, and every L1 frontend
// must compose it (directly, or through icache.Engine) instead of
// re-implementing the walk. It replaces the old string-scanning
// TestMissPathSingleCallSite, which keyed on marker substrings per file
// and could be fooled by renames or splitting the sequence across files.
//
// Concretely, outside _test.go files:
//
//   - (*mem.Hierarchy).FetchBlock may be called only from internal/mem
//     (the fetch engine and the hierarchy's own plumbing).
//   - (*mem.FetchEngine).Issue may be called only from internal/mem (the
//     L1-D) and from methods of icache.Engine.
//   - (*mem.MSHR).Insert and (*mem.MSHR).RecordFullStall may be called
//     only from internal/mem: allocating MSHR entries or recording
//     full-stalls anywhere else means a frontend is running its own miss
//     path and its retry accounting will drift.
//
// Benchmarks that drive these entry points directly live in _test.go
// files. "internal/mem" and "internal/icache" are matched as
// package-path suffixes, so fixtures reproduce the layout under their
// own module path.
package misspath

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"ubscache/internal/analysis/lintutil"
)

// Analyzer is the misspath rule.
var Analyzer = &analysis.Analyzer{
	Name:     "misspath",
	Doc:      "demand misses must flow through mem.FetchEngine (one miss path, one retry accounting)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

const (
	pkgMem    = "internal/mem"
	pkgICache = "internal/icache"
)

// restricted maps receiver type -> method -> diagnostic detail for the
// guarded entry points of package internal/mem.
var restricted = map[string]map[string]string{
	"Hierarchy": {
		"FetchBlock": "the shared-hierarchy walk is owned by mem.FetchEngine.Issue; compose mem.FetchEngine (or icache.Engine) instead of fetching blocks directly",
	},
	"FetchEngine": {
		"Issue": "only the L1 frontends' shared engines (icache.Engine, mem.DataCache) may issue misses; compose them instead of driving the fetch engine directly",
	},
	"MSHR": {
		"Insert":          "MSHR entries are allocated by mem.FetchEngine's miss path; inserting elsewhere re-implements the miss path",
		"RecordFullStall": "full-stall retries are accounted by mem.FetchEngine's miss path; recording elsewhere skews FullStall",
	},
}

func run(pass *analysis.Pass) (interface{}, error) {
	// The owning package is exempt wholesale.
	if lintutil.PkgPathHasSuffix(pass.Pkg.Path(), pkgMem) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	inICache := lintutil.PkgPathHasSuffix(pass.Pkg.Path(), pkgICache)

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		callee, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || callee.Pkg() == nil {
			return true
		}
		if !lintutil.PkgPathHasSuffix(callee.Pkg().Path(), pkgMem) {
			return true
		}
		recv := recvTypeName(callee)
		detail, guarded := restricted[recv][callee.Name()]
		if !guarded {
			return true
		}
		if lintutil.InTestFile(pass, call.Pos()) {
			return true
		}
		// icache.Engine is the blessed frontend composition point for
		// FetchEngine.Issue.
		if recv == "FetchEngine" && inICache {
			if fd := lintutil.EnclosingFuncDecl(stack); fd != nil && lintutil.ReceiverTypeName(fd) == "Engine" {
				return true
			}
		}
		pass.Reportf(call.Pos(), "call to (%s.%s).%s outside the miss path: %s",
			callee.Pkg().Name(), recv, callee.Name(), detail)
		return true
	})
	return nil, nil
}

// recvTypeName returns the bare receiver type name of a method ("" for
// plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
