// Package lintutil holds the small shared vocabulary of the ubslint
// analyzers: package-path suffix matching (so the rules bind to
// architectural roles like "internal/mem" rather than to this module's
// import path, which also lets analysistest-style fixtures reproduce the
// layout under their own module name), test-file detection, and the
// `//ubs:...` directive comments that mark structs and waive individual
// diagnostics.
//
// Directives understood across the suite:
//
//	//ubs:deterministic  (stmt/line)  waive one determinism map-range diagnostic (order audited)
//	//ubs:wallclock <why> (sink line) waive one determinism clock-sink diagnostic; justification required
//	//ubs:state          (type doc)   checkpointable state struct; checked by snapstate, a determinism sink
//	//ubs:artifact       (type doc)   struct marshalled into a results artifact; a determinism sink
//	//ubs:detached <why> (stmt/line)  waive one ctxleak diagnostic; justification required
//	//ubs:guardedby(mu)  (field doc/line) field may only be accessed holding sibling mutex mu; checked by mutexguard
//	//ubs:locked(mu)     (func doc)   callers hold the receiver's mutex mu on entry (mutexguard entry state)
//	//ubs:unguarded <why> (stmt/line) waive one mutexguard diagnostic; justification required
package lintutil

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// PkgPathHasSuffix reports whether path is rooted at one of the given
// role suffixes: it equals the suffix or ends in "/"+suffix. A fixture
// package "misspath.example/internal/mem" and the real
// "ubscache/internal/mem" both match the role "internal/mem".
func PkgPathHasSuffix(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// InTestFile reports whether pos sits in a _test.go file.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	f := pass.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// HasDirective reports whether the comment group carries the given
// `//ubs:name` directive.
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if directiveMatches(c.Text, name) {
			return true
		}
	}
	return false
}

func directiveMatches(text, name string) bool {
	_, ok := directiveRest(text, name)
	return ok
}

// directiveRest returns the text following `//ubs:name` (trimmed) and
// whether the comment carries that directive at all.
func directiveRest(text, name string) (string, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "ubs:"+name) {
		return "", false
	}
	rest := text[len("ubs:"+name):]
	if rest == "" {
		return "", true
	}
	if rest[0] == ' ' || rest[0] == '\t' {
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// DirectiveParam extracts the parenthesised parameter of a
// `//ubs:name(param)` directive from the comment group: for
// `//ubs:guardedby(mu)` it returns ("mu", true). Directives carrying
// trailing prose after the closing parenthesis are accepted.
func DirectiveParam(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "ubs:"+name+"(") {
			continue
		}
		rest := text[len("ubs:"+name+"("):]
		if i := strings.IndexByte(rest, ')'); i > 0 {
			return strings.TrimSpace(rest[:i]), true
		}
	}
	return "", false
}

// Waivers indexes a file's `//ubs:...` directive comments by line, so a
// diagnostic can be waived by a comment on the offending line or on the
// line directly above it (the //nolint convention).
type Waivers struct {
	fset  *token.FileSet
	lines map[int][]string // line -> directive comment texts on that line
}

// NewWaivers indexes every comment of file.
func NewWaivers(fset *token.FileSet, file *ast.File) *Waivers {
	w := &Waivers{fset: fset, lines: make(map[int][]string)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, "ubs:") {
				continue
			}
			line := fset.Position(c.End()).Line
			w.lines[line] = append(w.lines[line], c.Text)
		}
	}
	return w
}

// Waived reports whether a `//ubs:name` directive sits on pos's line or
// the line above it.
func (w *Waivers) Waived(pos token.Pos, name string) bool {
	line := w.fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, text := range w.lines[l] {
			if directiveMatches(text, name) {
				return true
			}
		}
	}
	return false
}

// WaivedJustified reports whether a `//ubs:name` directive sits on
// pos's line or the line above it, and whether it carries a non-empty
// justification — the dataflow-tier waivers (//ubs:wallclock,
// //ubs:detached, //ubs:unguarded) are only honoured when justified, so
// every surviving exemption records why it is safe.
func (w *Waivers) WaivedJustified(pos token.Pos, name string) (waived, justified bool) {
	line := w.fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, text := range w.lines[l] {
			if rest, ok := directiveRest(text, name); ok {
				waived = true
				if rest != "" {
					return true, true
				}
			}
		}
	}
	return waived, false
}

// ReceiverTypeName returns the bare type name of fn's receiver ("" for
// plain functions): both Engine and *Engine yield "Engine".
func ReceiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// EnclosingFuncDecl returns the innermost *ast.FuncDecl in stack (as
// produced by inspector.WithStack), or nil.
func EnclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
