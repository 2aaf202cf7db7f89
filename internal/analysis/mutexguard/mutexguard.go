// Package mutexguard checks lock discipline declared in the source: a
// struct field annotated `//ubs:guardedby(mu)` may only be read or
// written while the named sibling mutex is held on every control-flow
// path. The job server's queue/lease bookkeeping and the observability
// snapshots are the motivating state: they are mutated from HTTP
// handlers, scheduler goroutines, and heartbeat timers at once, and a
// single unlocked access is a data race the race detector only catches
// when a test happens to interleave it.
//
// The analysis is a forward must-analysis over each function's CFG.
// The abstract state is the set of held lock paths ("s.mu", "j.mu"):
// `p.Lock()`/`p.RLock()` on a sync.Mutex/RWMutex adds p, `p.Unlock()`/
// `p.RUnlock()` removes it, and joins intersect (a lock is held after a
// branch only if both arms held it). Deferred statements are skipped by
// the transfer function, so the canonical `mu.Lock(); defer mu.Unlock()`
// keeps the lock held to the end of the body. A helper whose contract
// is "caller holds the lock" declares it with `//ubs:locked(mu)` in its
// doc comment, which seeds the entry state with the receiver's mutex.
// The list may go on with dotted paths taken as written, such as
// `//ubs:locked(mu, j.mu)` for a helper whose parameter j guards its
// fields with a pointer to the receiver's mutex.
//
// An access the analysis cannot prove locked but a human has audited is
// waived line-level with `//ubs:unguarded <justification>`; the
// justification text is mandatory. Function literals are not analyzed
// (their lock state depends on the call site); accesses inside them are
// neither checked nor trusted.
package mutexguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"ubscache/internal/analysis/dataflow"
	"ubscache/internal/analysis/lintutil"
)

// Analyzer is the guarded-field lock-discipline rule.
var Analyzer = &analysis.Analyzer{
	Name:     "mutexguard",
	Doc:      "fields annotated //ubs:guardedby(mu) must only be accessed while the named mutex is held",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

// lockSet is the must-held abstraction: rendered lock paths currently
// held on every path reaching this point.
type lockSet map[string]bool

func cloneSet(s lockSet) lockSet {
	out := make(lockSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// joinSet intersects src into dst (must-analysis) and reports change.
func joinSet(dst, src lockSet) bool {
	changed := false
	for k := range dst {
		if !src[k] {
			delete(dst, k)
			changed = true
		}
	}
	return changed
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	guarded := collectGuarded(pass, ins)
	if len(guarded) == 0 {
		return nil, nil
	}

	waiversByFile := map[*ast.File]*lintutil.Waivers{}
	for _, f := range pass.Files {
		waiversByFile[f] = lintutil.NewWaivers(pass.Fset, f)
	}

	c := &checker{pass: pass, guarded: guarded}
	for _, fn := range dataflow.Funcs(pass, ins, cfgs) {
		if fn.Decl == nil {
			continue // literals: lock state depends on the call site
		}
		if lintutil.InTestFile(pass, fn.Decl.Pos()) {
			continue
		}
		c.checkFunc(fn, waiversByFile[fn.File])
	}
	return nil, nil
}

// collectGuarded indexes this package's `//ubs:guardedby(mu)` fields
// and validates each annotation: the named lock must be a sibling field
// of mutex type.
func collectGuarded(pass *analysis.Pass, ins *inspector.Inspector) map[*types.Var]string {
	guarded := map[*types.Var]string{}
	ins.Preorder([]ast.Node{(*ast.StructType)(nil)}, func(n ast.Node) {
		st := n.(*ast.StructType)
		for _, field := range st.Fields.List {
			lock, ok := lintutil.DirectiveParam(field.Doc, "guardedby")
			if !ok {
				lock, ok = lintutil.DirectiveParam(field.Comment, "guardedby")
			}
			if !ok {
				continue
			}
			if !siblingMutex(pass, st, lock) {
				pass.Reportf(field.Pos(),
					"//ubs:guardedby(%s) names no sibling sync.Mutex/RWMutex field %q in this struct", lock, lock)
				continue
			}
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					guarded[v] = lock
				}
			}
		}
	})
	return guarded
}

// siblingMutex reports whether st declares a field named lock of mutex
// type.
func siblingMutex(pass *analysis.Pass, st *ast.StructType, lock string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name == lock {
				return dataflow.IsMutex(pass.TypesInfo.TypeOf(field.Type))
			}
		}
	}
	return false
}

type checker struct {
	pass    *analysis.Pass
	guarded map[*types.Var]string
}

// checkFunc runs the must-held fixpoint over one declaration and then
// replays it, checking every guarded-field access against the lock set
// in force at its program point.
func (c *checker) checkFunc(fn dataflow.Func, waivers *lintutil.Waivers) {
	entry := lockSet{}
	if locks, ok := lintutil.DirectiveParam(fn.Decl.Doc, "locked"); ok {
		recv := receiverName(fn.Decl)
		for _, lock := range strings.Split(locks, ",") {
			lock = strings.TrimSpace(lock)
			if recv != "" && !strings.Contains(lock, ".") {
				lock = recv + "." + lock
			}
			entry[lock] = true
		}
	}

	states, reached := dataflow.Forward(fn.CFG, entry, cloneSet, joinSet, c.transfer)
	for i, b := range fn.CFG.Blocks {
		if !reached[i] {
			continue
		}
		s := cloneSet(states[i])
		for _, node := range b.Nodes {
			c.checkAccesses(node, s, waivers)
			c.transfer(node, s)
		}
	}
}

// transfer updates the held set for one CFG node: Lock/RLock acquire,
// Unlock/RUnlock release. Deferred statements are skipped — they run at
// function exit, so a `defer mu.Unlock()` must not clear the lock at
// its syntactic position. Function literals are opaque.
func (c *checker) transfer(n ast.Node, s lockSet) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := typeutil.Callee(c.pass.TypesInfo, x).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
				return true
			}
			path := dataflow.Path(sel.X)
			if path == "" {
				return true
			}
			switch fn.Name() {
			case "Lock", "RLock":
				s[path] = true
			case "Unlock", "RUnlock":
				delete(s, path)
			}
		}
		return true
	})
}

// checkAccesses reports every guarded-field selection in node whose
// lock is not in the held set at this point.
func (c *checker) checkAccesses(node ast.Node, held lockSet, waivers *lintutil.Waivers) {
	if _, ok := node.(*ast.DeferStmt); ok {
		return
	}
	ast.Inspect(node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SelectorExpr:
			field := dataflow.FieldOf(c.pass.TypesInfo, x)
			if field == nil {
				return true
			}
			lock, ok := c.guarded[field]
			if !ok {
				return true
			}
			base := dataflow.Path(x.X)
			if base != "" && held[base+"."+lock] {
				return true
			}
			c.report(x.Pos(), waivers, field.Name(), lock, base)
		}
		return true
	})
}

// report emits one diagnostic unless a justified //ubs:unguarded waiver
// covers the line.
func (c *checker) report(pos token.Pos, waivers *lintutil.Waivers, field, lock, base string) {
	if waivers != nil {
		waived, justified := waivers.WaivedJustified(pos, "unguarded")
		if waived && justified {
			return
		}
		if waived {
			c.pass.Reportf(pos, "field %s is //ubs:guardedby(%s) but %s is not provably held here (the //ubs:unguarded waiver needs a justification)", field, lock, lock)
			return
		}
	}
	owner := lock
	if base != "" {
		owner = base + "." + lock
	}
	c.pass.Reportf(pos, "field %s is //ubs:guardedby(%s) but %s is not provably held on every path to this access; hold the mutex, mark the helper //ubs:locked(%s), or waive with //ubs:unguarded <justification>", field, lock, owner, lock)
}

// receiverName returns the name of fn's receiver variable, or "".
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}
