// Package analyzers holds the simlint suite: ten static-analysis passes
// that machine-check the accounting core's structural invariants — the
// conventions that make every CPI/FLOPS stack sum exactly to total cycles —
// the simulator's hot-path performance contracts, its concurrency
// discipline, and its error-propagation contract.
//
//   - enumexhaustive: switches over accounting enums cover every value (or
//     carry a //simlint:partial annotation) and fixed arrays indexed by such
//     enums are sized by their Num* sentinel.
//   - repeataware: every Cycle(*core.CycleSample) accountant handles batched
//     Repeat samples instead of silently treating them as one cycle.
//   - batchingest: internal/cpu pulls trace uops through
//     BatchReader.ReadBatch, never per-uop Reader.Next.
//   - determinism: no wall-clock time, global math/rand, or map-iteration
//     accumulation inside the simulation packages.
//   - acctencapsulation: stack accumulator fields are written only from
//     their accountant's own file set.
//   - errcheckerr: non-test code that drains a trace reader to exhaustion
//     also checks the reader's Err() (or trace.ErrOf) in the same function,
//     so a faulted stream can never pass for a clean end of trace.
//   - handlerctx: internal/service HTTP handlers propagate r.Context() into
//     context-accepting calls (singleflight, pool submission), so client
//     disconnects cancel the work they started.
//   - hotalloc: functions marked //simlint:hotpath and their same-package
//     transitive callees are allocation-free on all CFG-reachable paths
//     (flow-sensitive; see internal/analysis/cfg and /dataflow).
//   - atomicmix: a field ever accessed through sync/atomic is never plainly
//     read or written outside the provable pre-publication window.
//   - staleannot: every //simlint:partial still suppresses a live finding
//     and every //simlint:hotpath anchors to a function declaration.
//
// DESIGN.md §8 lists the enforced invariants (§12 covers the
// flow-sensitive tier); cmd/simlint is the multichecker binary that runs
// the suite (standalone or as a `go vet -vettool`).
package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"perfstacks/internal/analysis"
)

// All returns the full simlint suite in reporting order. StaleAnnot must
// run last: it audits the suppression annotations the earlier passes
// consulted (see staleannot.go).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		EnumExhaustive,
		RepeatAware,
		BatchIngest,
		Determinism,
		AcctEncapsulation,
		ErrCheckErr,
		HandlerCtx,
		HotAlloc,
		AtomicMix,
		StaleAnnot,
	}
}

// The two annotation markers the suite understands. partial acknowledges a
// reviewed finding (and must carry a reason); hotpath marks a function whose
// body — and same-package transitive callees — hotalloc proves
// allocation-free.
const (
	partialPrefix = "//simlint:partial"
	hotpathPrefix = "//simlint:hotpath"
)

// marked is one parsed simlint annotation comment.
type marked struct {
	pos  token.Pos
	file string
	line int
	// text is what follows the marker (the reason for partial, the
	// optional note for hotpath).
	text string
}

// gatherMarked is the shared annotation scanner behind both markers: it
// returns every comment of the pass's files that starts with marker
// followed by a word boundary, in file/position order. All annotation
// parsing funnels through here so the two markers cannot drift apart in
// tokenization.
func gatherMarked(pass *analysis.Pass, marker string) []marked {
	var out []marked
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, marker) {
					continue
				}
				rest := c.Text[len(marker):]
				// Word boundary: "//simlint:partial" must not match a
				// hypothetical "//simlint:partially" marker.
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				out = append(out, marked{
					pos:  c.Pos(),
					file: pos.Filename,
					line: pos.Line,
					text: strings.TrimSpace(rest),
				})
			}
		}
	}
	return out
}

// annotationUses, when non-nil, records each partial annotation that
// suppressed (or was consulted for) a finding, keyed "file:line". It is set
// only during staleannot's audit re-run of the sibling analyzers; see
// staleannot.go.
var annotationUses map[string]bool

// useKey is the annotationUses key for an annotation site.
func useKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// annotations indexes a package's //simlint:partial comments so analyzers
// can suppress acknowledged findings. An annotation applies to findings on
// its own line and on the line directly below it (i.e. it may trail the
// statement or sit on its own line above).
type annotations struct {
	fset *token.FileSet
	// reasoned[file][line] is true when the annotation carries a reason.
	lines map[string]map[int]bool
}

// gatherAnnotations scans the pass's files for partial annotations.
func gatherAnnotations(pass *analysis.Pass) *annotations {
	a := &annotations{fset: pass.Fset, lines: make(map[string]map[int]bool)}
	for _, m := range gatherMarked(pass, partialPrefix) {
		fm := a.lines[m.file]
		if fm == nil {
			fm = make(map[int]bool)
			a.lines[m.file] = fm
		}
		fm[m.line] = m.text != ""
	}
	return a
}

// suppressed reports whether a finding at pos is covered by an annotation,
// and reports a diagnostic when an annotation exists but has no reason (an
// empty acknowledgement is itself a finding). Matched annotations are
// recorded in annotationUses during a staleannot audit.
func (a *annotations) suppressed(pass *analysis.Pass, pos token.Pos) bool {
	p := a.fset.Position(pos)
	m := a.lines[p.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		if reasoned, ok := m[line]; ok {
			if annotationUses != nil {
				annotationUses[useKey(p.Filename, line)] = true
			}
			if !reasoned {
				pass.Reportf(pos, "simlint:partial annotation requires a reason")
			}
			return true
		}
	}
	return false
}

// pkgSuffix reports whether path is suffix or ends in "/"+suffix.
func pkgSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// baseFile returns the base name of the file containing pos.
func baseFile(fset *token.FileSet, pos token.Pos) string {
	name := fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(baseFile(fset, pos), "_test.go")
}

// walkFiles applies fn to every node of every file.
func walkFiles(pass *analysis.Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, fn)
	}
}

// constCond adapts the pass's type information into the cfg builder's
// constant-condition oracle, so branches guarded by typed boolean constants
// (the invariant.Enabled simdebug guards) prune exactly as the compiler
// discards them.
func constCond(info *types.Info) func(ast.Expr) (val, ok bool) {
	return func(e ast.Expr) (bool, bool) {
		tv, ok := info.Types[e]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
			return false, false
		}
		return constant.BoolVal(tv.Value), true
	}
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// staticCallee resolves a call expression to the *types.Func it statically
// invokes: a plain function, a package-qualified function, or a method on a
// concrete receiver. Interface method calls and calls through function
// values return nil — they cannot be resolved intra-package.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				f, _ := sel.Obj().(*types.Func)
				return f
			}
			return nil
		}
		// Package-qualified: pkg.Func.
		f, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcDecls indexes every function and method declared with a body in the
// pass's files by its type object.
func funcDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}
	return decls
}

// hotpathAnchored reports whether annotation m anchors to decl: inside the
// declaration's doc comment, or trailing the declaration's first line.
func hotpathAnchored(fset *token.FileSet, m marked, decl *ast.FuncDecl) bool {
	if decl.Doc != nil && m.pos >= decl.Doc.Pos() && m.pos <= decl.Doc.End() {
		return true
	}
	p := fset.Position(decl.Pos())
	return m.file == p.Filename && m.line == p.Line
}

// hotpathFuncs returns the functions marked //simlint:hotpath, keyed by
// type object, given the package's declaration index.
func hotpathFuncs(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl) map[*types.Func]bool {
	anns := gatherMarked(pass, hotpathPrefix)
	if len(anns) == 0 {
		return nil
	}
	seeds := make(map[*types.Func]bool)
	for fn, fd := range decls {
		for _, m := range anns {
			if hotpathAnchored(pass.Fset, m, fd) {
				seeds[fn] = true
				break
			}
		}
	}
	return seeds
}
