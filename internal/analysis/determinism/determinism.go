// Package determinism pins the reproduction's core methodological claim:
// a trace-driven run is a pure function of (trace, design, params). Inside
// the result-producing packages (scope) it enforces three rules:
//
//   - No global RNG. math/rand's global source (rand.Intn, rand.Int63,
//     rand.Seed, ...) is banned: anything stochastic must draw from an
//     explicitly seeded *rand.Rand so a run replays bit-for-bit.
//   - No map-range that writes output. Ranging over a map while writing
//     to an encoder or output stream (json.Encoder.Encode,
//     csv.Writer.Write, fmt.Fprint*, Write* methods) makes the artifact
//     bytes depend on Go's randomised map order. Sort the keys first, or
//     waive an audited order-insensitive loop with //ubs:deterministic.
//   - The clock. In the simulation core (internal/sim, internal/exp,
//     internal/trace, internal/workloadspec, internal/checkpoint,
//     internal/snap) time.Now, time.Since and time.Until are banned
//     outright: simulation time is the cycle counter. In the
//     orchestration layers (internal/runner, internal/obs,
//     internal/serve) the clock is read legitimately (progress lines,
//     pacing, job timestamps), so its values are taint-tracked instead.
//
// A tracked clock value is reported only when it reaches a
// deterministic sink:
//
//   - a field of a `//ubs:state` struct (the checkpoint image);
//   - a field of a `//ubs:artifact` struct (the results.json schema),
//     or a composite literal of either struct kind with a tainted
//     element;
//   - an internal/stats Stats field (published numbers);
//   - an argument to the internal/snap or internal/checkpoint codecs;
//   - an argument to a JSON/CSV encoder (artifact bytes).
//
// Taint propagates function-locally through assignments, arithmetic,
// conversions, composite literals, method calls on tainted receivers,
// fmt.Sprint*, and append, as a forward may-analysis over the ctrlflow
// CFG (union at joins). A genuine sink — results.json's wall_seconds,
// the store's RunMeta.Seconds — is waived at the sink line with
// `//ubs:wallclock <justification>`; the justification is mandatory.
package determinism

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

// Analyzer is the determinism rule.
var Analyzer = &analysis.Analyzer{
	Name:     "determinism",
	Doc:      "result-producing packages must stay trace-deterministic (no global RNG, no map-order output, no wall clock in the core or flowing into results)",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

// scope lists the package roles whose outputs become (or key) published
// numbers. internal/serve is a serving layer, not a result producer, but
// the global-RNG and map-order rules still apply to it; internal/trace
// and internal/workloadspec joined when workload resolution became part
// of the result identity, internal/checkpoint and internal/snap when
// resume entered the result path.
var scope = []string{
	"internal/sim", "internal/exp", "internal/runner", "internal/obs",
	"internal/serve", "internal/workloadspec", "internal/trace",
	"internal/checkpoint", "internal/snap",
}

// core is the simulation core, where a clock read is wrong on sight.
// The rest of scope is orchestration, where clock values are tracked.
var core = []string{
	"internal/sim", "internal/exp", "internal/trace",
	"internal/workloadspec", "internal/checkpoint", "internal/snap",
}

// codecRoles are the package roles whose exported functions consume
// bytes that must replay identically; any tainted argument is a sink.
var codecRoles = []string{"internal/snap", "internal/checkpoint"}

// seededConstructors are the math/rand package-level functions that build
// explicit sources and generators rather than touching the global one.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.PkgPathHasSuffix(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	inCore := lintutil.PkgPathHasSuffix(pass.Pkg.Path(), core...)
	waiversByFile := map[*ast.File]*lintutil.Waivers{}
	for _, f := range pass.Files {
		waiversByFile[f] = lintutil.NewWaivers(pass.Fset, f)
	}

	nodeFilter := []ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil)}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push || lintutil.InTestFile(pass, n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n, inCore)
		case *ast.RangeStmt:
			file, _ := stack[0].(*ast.File)
			checkMapRange(pass, n, waiversByFile[file])
		}
		return true
	})
	if inCore {
		return nil, nil
	}

	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	sk := collectSinks(pass)
	for _, fn := range dataflow.Funcs(pass, ins, cfgs) {
		if !lintutil.InTestFile(pass, fn.Body.Pos()) {
			analyzeFunc(pass, fn, sk, waiversByFile[fn.File])
		}
	}
	return nil, nil
}

// clockRead reports whether fn is time.Now, time.Since or time.Until.
func clockRead(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, inCore bool) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (t.Sub, an explicit *rand.Rand) are fine
	}
	switch {
	case inCore && clockRead(fn):
		pass.Reportf(call.Pos(),
			"time.%s in the simulation core: simulation time is the cycle counter, never the host clock", fn.Name())
	case (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") && !seededConstructors[fn.Name()]:
		pass.Reportf(call.Pos(),
			"%s.%s uses the global math/rand source: draw from an explicitly seeded *rand.Rand so runs replay bit-for-bit", fn.Pkg().Name(), fn.Name())
	}
}

func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, waivers *lintutil.Waivers) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if waivers != nil && waivers.Waived(rng.Pos(), "deterministic") {
		return
	}
	// Only map ranges that emit inside the loop are flagged: collect-then-
	// sort loops (append into a slice, sort after) stay legal.
	emits := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isEmitCall(pass.TypesInfo, call) {
			emits = true
		}
		return !emits
	})
	if emits {
		pass.Reportf(rng.Pos(),
			"range over map writes to an output stream inside the loop: map order is randomised, so artifact bytes differ run to run; sort the keys first (or waive an audited loop with //ubs:deterministic)")
	}
}

// isEmitCall reports whether call writes to an output stream or encoder:
// fmt.Fprint*, or any Encode/Write/WriteAll/WriteString/WriteByte/
// WriteRune method (json.Encoder, csv.Writer, io.Writer, bufio.Writer,
// strings.Builder, ...).
func isEmitCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := typeutil.Callee(info, call).(*types.Func)
	if !ok {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Encode", "Write", "WriteAll", "WriteString", "WriteByte", "WriteRune":
		return true
	}
	return false
}

// taint is the abstract state: whole locals tainted by identifier
// assignment (objs), plus individually tainted selector paths from
// stores through fields ("rf.WallSeconds"). Tracking field stores by
// path rather than smearing the whole base object keeps one waived
// tainted field (results.json wall_seconds) from contaminating every
// later store into a sibling field of the same struct.
type taint struct {
	objs  map[types.Object]bool
	paths map[string]bool
}

func cloneTaint(s taint) taint {
	out := taint{objs: make(map[types.Object]bool, len(s.objs)), paths: make(map[string]bool, len(s.paths))}
	joinTaint(out, s)
	return out
}

// joinTaint unions src into dst (may-analysis).
func joinTaint(dst, src taint) bool {
	changed := false
	for k := range src.objs {
		changed = changed || !dst.objs[k]
		dst.objs[k] = true
	}
	for k := range src.paths {
		changed = changed || !dst.paths[k]
		dst.paths[k] = true
	}
	return changed
}

// pathTainted reports whether the storage named by path p is tainted:
// exactly, as a container of a tainted sub-path (reading x when x.f is
// tainted), or as a sub-path of a tainted prefix (reading x.f.g when
// x.f is tainted).
func (s taint) pathTainted(p string) bool {
	for k := range s.paths {
		if k == p || strings.HasPrefix(k, p+".") || strings.HasPrefix(p, k+".") {
			return true
		}
	}
	return false
}

// clearPath is the strong update for a clean store through path p.
func (s taint) clearPath(p string) {
	for k := range s.paths {
		if k == p || strings.HasPrefix(k, p+".") {
			delete(s.paths, k)
		}
	}
}

// sinkKind says why a struct's fields are deterministic sinks.
type sinkKind string

const (
	sinkState    sinkKind = "//ubs:state checkpoint image"
	sinkArtifact sinkKind = "//ubs:artifact results schema"
	sinkStats    sinkKind = "internal/stats published counters"
)

type sinks struct {
	fields  map[*types.Var]sinkKind   // field -> why it is a sink
	structs map[*types.Named]sinkKind // marked struct types (composite literals)
}

// collectSinks indexes this package's //ubs:state and //ubs:artifact
// struct declarations by field object and by named type.
func collectSinks(pass *analysis.Pass) *sinks {
	sk := &sinks{fields: map[*types.Var]sinkKind{}, structs: map[*types.Named]sinkKind{}}
	marked := func(gd *ast.GenDecl, ts *ast.TypeSpec, name string) bool {
		return lintutil.HasDirective(ts.Doc, name) || (len(gd.Specs) == 1 && lintutil.HasDirective(gd.Doc, name))
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				var kind sinkKind
				switch {
				case marked(gd, ts, "state"):
					kind = sinkState
				case marked(gd, ts, "artifact"):
					kind = sinkArtifact
				default:
					continue
				}
				if named, ok := pass.TypesInfo.Defs[ts.Name].Type().(*types.Named); ok {
					sk.structs[named] = kind
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							sk.fields[v] = kind
						}
					}
				}
			}
		}
	}
	return sk
}

// fieldSink classifies v as a sink field, covering both this package's
// marked structs and internal/stats fields from any package.
func (sk *sinks) fieldSink(v *types.Var) (sinkKind, bool) {
	if v == nil {
		return "", false
	}
	if k, ok := sk.fields[v]; ok {
		return k, true
	}
	if v.Pkg() != nil && lintutil.PkgPathHasSuffix(v.Pkg().Path(), "internal/stats") {
		return sinkStats, true
	}
	return "", false
}

// structSink classifies t (or *t) as a sink struct type.
func (sk *sinks) structSink(t types.Type) (sinkKind, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	if k, ok := sk.structs[named]; ok {
		return k, true
	}
	if obj := named.Obj(); obj.Pkg() != nil && lintutil.PkgPathHasSuffix(obj.Pkg().Path(), "internal/stats") {
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			return sinkStats, true
		}
	}
	return "", false
}

func analyzeFunc(pass *analysis.Pass, fn dataflow.Func, sk *sinks, waivers *lintutil.Waivers) {
	tr := &tracker{pass: pass, sk: sk, waivers: waivers}
	entry := taint{objs: map[types.Object]bool{}, paths: map[string]bool{}}
	in, reached := dataflow.Forward(fn.CFG, entry, cloneTaint, joinTaint, tr.transfer)
	// Report pass: replay each reached block from its fixed in-state,
	// checking sinks at every node before applying its transfer.
	for i, b := range fn.CFG.Blocks {
		if !reached[i] {
			continue
		}
		s := cloneTaint(in[i])
		for _, node := range b.Nodes {
			tr.checkSinks(node, s)
			tr.transfer(node, s)
		}
	}
}

type tracker struct {
	pass    *analysis.Pass
	sk      *sinks
	waivers *lintutil.Waivers
}

// transfer applies one CFG node's effect to the taint state.
func (t *tracker) transfer(n ast.Node, s taint) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		t.assign(n.Lhs, n.Rhs, s)
	case *ast.ValueSpec:
		if len(n.Values) > 0 {
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			t.assign(lhs, n.Values, s)
		}
	}
}

// rhsFor returns the expression assigned to lhs[i], covering the 1:N
// tuple form, or nil.
func rhsFor(lhs, rhs []ast.Expr, i int) ast.Expr {
	switch {
	case len(lhs) == len(rhs):
		return rhs[i]
	case len(rhs) == 1:
		return rhs[0]
	}
	return nil
}

// assign models lhs... = rhs....
func (t *tracker) assign(lhs, rhs []ast.Expr, s taint) {
	taints := make([]bool, len(lhs))
	for i := range lhs {
		if r := rhsFor(lhs, rhs, i); r != nil {
			taints[i] = t.tainted(r, s)
		}
	}
	for i, l := range lhs {
		if id, ok := l.(*ast.Ident); ok {
			if obj := t.pass.TypesInfo.ObjectOf(id); obj != nil && id.Name != "_" {
				if taints[i] {
					s.objs[obj] = true
				} else {
					delete(s.objs, obj) // strong update
					s.clearPath(id.Name)
				}
			}
			continue
		}
		// A store through x.f taints (or, when clean, untaints) that
		// path only; stores the path grammar cannot render (x[i].f,
		// (*p).f through an expression) smear the base object.
		if path := dataflow.Path(l); path != "" {
			if taints[i] {
				s.paths[path] = true
			} else {
				s.clearPath(path)
			}
		} else if base := baseIdent(l); taints[i] && base != nil {
			if obj := t.pass.TypesInfo.ObjectOf(base); obj != nil {
				s.objs[obj] = true
			}
		}
	}
}

// baseIdent peels selectors/indices/stars down to the root identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// tainted evaluates an expression's taint under state s.
func (t *tracker) tainted(e ast.Expr, s taint) bool {
	switch e := e.(type) {
	case *ast.Ident:
		// A whole-value use of x is tainted if any x.f path is.
		return s.objs[t.pass.TypesInfo.ObjectOf(e)] || s.pathTainted(e.Name)
	case *ast.SelectorExpr:
		// Package-qualified references are never tainted.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := t.pass.TypesInfo.ObjectOf(id).(*types.PkgName); isPkg {
				return false
			}
		}
		// A rendered path decides on its own taint plus whole-object
		// taint of the root; an unrenderable base falls back to the
		// base expression's taint.
		if path := dataflow.Path(e); path != "" {
			base := baseIdent(e)
			return s.pathTainted(path) || (base != nil && s.objs[t.pass.TypesInfo.ObjectOf(base)])
		}
		return t.tainted(e.X, s)
	case *ast.CallExpr:
		return t.callTainted(e, s)
	case *ast.BinaryExpr:
		return t.tainted(e.X, s) || t.tainted(e.Y, s)
	case *ast.UnaryExpr:
		return t.tainted(e.X, s)
	case *ast.ParenExpr:
		return t.tainted(e.X, s)
	case *ast.StarExpr:
		return t.tainted(e.X, s)
	case *ast.IndexExpr:
		return t.tainted(e.X, s)
	case *ast.SliceExpr:
		return t.tainted(e.X, s)
	case *ast.TypeAssertExpr:
		return t.tainted(e.X, s)
	case *ast.CompositeLit:
		return t.anyTainted(elements(e), s)
	}
	return false
}

// elements returns a composite literal's element values.
func elements(lit *ast.CompositeLit) []ast.Expr {
	out := make([]ast.Expr, len(lit.Elts))
	for i, elt := range lit.Elts {
		out[i] = elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			out[i] = kv.Value
		}
	}
	return out
}

func (t *tracker) anyTainted(es []ast.Expr, s taint) bool {
	for _, e := range es {
		if t.tainted(e, s) {
			return true
		}
	}
	return false
}

// callTainted reports whether a call's result is tainted: clock reads,
// conversions, append and fmt.Sprint* of tainted values, and methods on
// tainted receivers (t0.Sub(u), d.Seconds(), ...).
func (t *tracker) callTainted(call *ast.CallExpr, s taint) bool {
	info := t.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && t.tainted(call.Args[0], s)
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			return t.anyTainted(call.Args, s)
		}
	}
	fn, _ := typeutil.Callee(info, call).(*types.Func)
	if fn == nil {
		return false
	}
	if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return ok && t.tainted(sel.X, s)
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Sprint") {
		return t.anyTainted(call.Args, s)
	}
	return clockRead(fn)
}

// checkSinks reports every tainted value reaching a sink within node,
// evaluated against the taint state as of node entry.
func (t *tracker) checkSinks(node ast.Node, s taint) {
	if assign, ok := node.(*ast.AssignStmt); ok {
		for i, l := range assign.Lhs {
			sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			kind, ok := t.sk.fieldSink(dataflow.FieldOf(t.pass.TypesInfo, sel))
			if r := rhsFor(assign.Lhs, assign.Rhs, i); ok && r != nil && t.tainted(r, s) {
				t.report(assign.Pos(), kind)
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate CFG, analyzed on its own
		case *ast.CompositeLit:
			// One report per literal, anchored at the literal so a single
			// waiver line covers the whole construction.
			if kind, ok := t.sk.structSink(t.pass.TypesInfo.TypeOf(n)); ok && t.anyTainted(elements(n), s) {
				t.report(n.Pos(), kind)
			}
		case *ast.CallExpr:
			t.checkCallSinks(n, s)
		}
		return true
	})
}

// checkCallSinks flags tainted arguments flowing into codecs/encoders.
func (t *tracker) checkCallSinks(call *ast.CallExpr, s taint) {
	fn, _ := typeutil.Callee(t.pass.TypesInfo, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	var kind sinkKind
	switch path, name := fn.Pkg().Path(), fn.Name(); {
	case lintutil.PkgPathHasSuffix(path, codecRoles...):
		kind = sinkKind(fn.Pkg().Name() + " codec input")
	case path == "encoding/json" && (name == "Marshal" || name == "MarshalIndent" || name == "Encode"):
		kind = "JSON artifact bytes"
	case path == "encoding/csv" && (name == "Write" || name == "WriteAll"):
		kind = "CSV artifact bytes"
	default:
		return
	}
	for _, a := range call.Args {
		if t.tainted(a, s) {
			t.report(a.Pos(), kind)
		}
	}
}

// report emits one sink diagnostic unless a justified //ubs:wallclock
// waiver covers the line; a bare waiver (no justification) is itself
// called out, so every surviving exemption documents why it is safe.
func (t *tracker) report(pos token.Pos, kind sinkKind) {
	waived, justified := t.waivers.WaivedJustified(pos, "wallclock")
	switch {
	case justified:
	case waived:
		t.pass.Reportf(pos, "wall-clock value reaches a deterministic sink (%s); the //ubs:wallclock waiver needs a justification", kind)
	default:
		t.pass.Reportf(pos, "wall-clock value reaches a deterministic sink (%s); results must be a pure function of (trace, design, params) — scrub the value or waive the audited sink with //ubs:wallclock <justification>", kind)
	}
}
