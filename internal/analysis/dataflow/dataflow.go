// Package dataflow is the shared flow-sensitive substrate of the
// ubslint dataflow tier (determinism, ctxleak, mutexguard). It walks
// the control-flow graphs built by the vendored ctrlflow pass and runs
// simple forward fixpoints over them — a deliberately small stand-in
// for go/ssa (which the hermetic third_party/ subset of x/tools does
// not carry): abstract values attach to types.Object locals and to
// rendered selector paths rather than SSA registers, which is precise
// enough for the repository's invariants while keeping the vendored
// surface to the CFG builder the Go distribution itself ships.
package dataflow

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// Func is one analyzable function body: a declaration or a function
// literal, with its control-flow graph.
type Func struct {
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt
	CFG  *cfg.CFG
	File *ast.File // enclosing file (for waiver lookup)
}

// Funcs enumerates every function declaration and literal of the pass
// that has both a body and a CFG, pairing each with its enclosing file.
func Funcs(pass *analysis.Pass, ins *inspector.Inspector, cfgs *ctrlflow.CFGs) []Func {
	var out []Func
	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		file, _ := stack[0].(*ast.File)
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return true
			}
			if g := cfgs.FuncDecl(n); g != nil {
				out = append(out, Func{Decl: n, Body: n.Body, CFG: g, File: file})
			}
		case *ast.FuncLit:
			if g := cfgs.FuncLit(n); g != nil {
				out = append(out, Func{Lit: n, Body: n.Body, CFG: g, File: file})
			}
		}
		return true
	})
	return out
}

// Forward runs a forward dataflow fixpoint over g and returns the
// in-state of every block (nil for blocks never reached from entry).
//
// entry seeds block 0. transfer mutates a state in place, node by node
// in block order. clone copies a state; join folds src into dst and
// reports whether dst changed. Whether the analysis is a may- (union
// join) or must- (intersection join) analysis is entirely the caller's
// choice of join.
func Forward[S any](g *cfg.CFG, entry S, clone func(S) S, join func(dst, src S) bool, transfer func(n ast.Node, s S)) (states []S, reached []bool) {
	n := len(g.Blocks)
	in := make([]S, n)
	seen := make([]bool, n)
	in[0], seen[0] = entry, true

	work := []int32{0}
	inWork := make([]bool, n)
	inWork[0] = true
	for len(work) > 0 {
		idx := work[0]
		work = work[1:]
		inWork[idx] = false
		b := g.Blocks[idx]

		out := clone(in[idx])
		for _, node := range b.Nodes {
			transfer(node, out)
		}
		for _, succ := range b.Succs {
			s := succ.Index
			changed := false
			if !seen[s] {
				in[s], seen[s] = clone(out), true
				changed = true
			} else if join(in[s], out) {
				changed = true
			}
			if changed && !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	// Blocks never reached keep their zero state; the parallel reached
	// slice lets callers skip them (dead code proves nothing).
	return in, seen
}

// Path renders e as a dotted chain of plain identifiers and field
// selections — "s", "s.mu", "j.log" — or "" when e is anything more
// complex (calls, indexing, dereferences of expressions). Two accesses
// with the same non-empty path refer to the same storage whenever the
// base identifier is not reassigned between them, which is the aliasing
// discipline the lock and leak analyses assume.
func Path(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.ParenExpr:
		return Path(x.X)
	case *ast.SelectorExpr:
		if p := Path(x.X); p != "" {
			return p + "." + x.Sel.Name
		}
	}
	return ""
}

// deref unwraps pointers and aliases to the core named type.
func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t
}

// IsNamed reports whether t (or *t) is the named type pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool { return IsNamed(t, "context", "Context") }

// IsMutex reports whether t is sync.Mutex or sync.RWMutex (or a pointer
// to one).
func IsMutex(t types.Type) bool {
	return IsNamed(t, "sync", "Mutex") || IsNamed(t, "sync", "RWMutex")
}

// IsChan reports whether t's underlying type is a channel.
func IsChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// FieldOf resolves sel to the struct field it selects (through
// embedding and auto-deref), or nil when sel is not a field selection.
func FieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}
