package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"perfstacks/internal/analysis"
	"perfstacks/internal/analysis/cfg"
	"perfstacks/internal/analysis/dataflow"
)

// HotAlloc proves the benchmarked 0 allocs/op property statically: every
// function marked //simlint:hotpath — Core.Step, the ReadBatch
// implementations, the sliced L3's Access routing, the accountants' Cycle —
// and every same-package function transitively called from one must be
// allocation-free on all paths reachable from its entry. The benchmarks
// catch an allocation regression only on the configurations they run; this
// pass catches it on every path of every build.
//
// The analysis is flow-sensitive. Each function's body becomes a CFG
// (internal/analysis/cfg) with constant conditions pruned, so allocation
// sites inside `if invariant.Enabled { ... }` guards — dead code outside
// simdebug builds — are not charged to the hot path. Allocation sites on
// unreachable paths (dead code after return/panic) are likewise ignored. A
// forward Must dataflow (internal/analysis/dataflow) tracks which slice
// variables are provably preallocated — reslices of fields or package
// variables (buf := c.buf[:0]), results of make with explicit capacity, and
// self-appends (x = append(x, ...)) — so the amortized-reuse append idiom
// the hot path is built on passes while an append to a fresh or
// unknown-capacity slice is flagged on any path that reaches it.
//
// Flagged allocation sites: composite literals that escape (&T{...}, slice
// and map literals), closures that capture variables, interface boxing of
// non-pointer-shaped values (the fmt varargs trap), append to a slice not
// provably preallocated, string concatenation and string<->[]byte
// conversions, map writes, make/new, go statements, and calls into fmt.
// Deliberate exceptions (an error path that ends the stream, an amortized
// staging-buffer grow) are acknowledged with a reasoned //simlint:partial.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //simlint:hotpath (and same-package transitive callees) must be allocation-free on all reachable paths",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) (interface{}, error) {
	decls := funcDecls(pass)
	seeds := hotpathFuncs(pass, decls)
	if len(seeds) == 0 {
		return nil, nil
	}
	ann := gatherAnnotations(pass)

	// Transitive closure over same-package static calls: a hot function's
	// helpers are as hot as the function itself. The walk is
	// reachability-aware — it visits only CFG blocks live after
	// constant-condition pruning, so a helper called solely under an
	// `if invariant.Enabled` guard (dead outside simdebug builds) is not
	// dragged into the hot set. Closure bodies are skipped for the same
	// reason checkNode skips them: they execute on someone else's clock.
	hot := make(map[*types.Func]bool, len(seeds))
	var work []*types.Func
	for fn := range seeds {
		hot[fn] = true
		work = append(work, fn)
	}
	addCallees := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pass, call)
			if callee == nil || hot[callee] {
				return true
			}
			if _, ok := decls[callee]; ok {
				hot[callee] = true
				work = append(work, callee)
			}
			return true
		})
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		g := cfg.New(decls[fn].Body, cfg.Options{ConstCond: constCond(pass.TypesInfo)})
		reach := g.Reachable()
		for _, b := range g.Blocks {
			if !reach[b.Index] {
				continue
			}
			for _, n := range b.Nodes {
				addCallees(n)
			}
		}
		for _, d := range g.Defers {
			addCallees(d.Call)
		}
	}

	// Check in source order for deterministic reporting.
	ordered := make([]*types.Func, 0, len(hot))
	for fn := range hot {
		ordered = append(ordered, fn)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return decls[ordered[i]].Pos() < decls[ordered[j]].Pos()
	})
	for _, fn := range ordered {
		checkHotFunc(pass, ann, fn, decls[fn])
	}
	return nil, nil
}

// sliceFacts is the Must dataflow domain: the set of slice variables
// provably preallocated at a program point. Join is intersection — a slice
// is preallocated only if it is on every path.
type sliceFacts map[*types.Var]bool

type sliceLattice struct{}

func (sliceLattice) Clone(f sliceFacts) sliceFacts {
	c := make(sliceFacts, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}
func (sliceLattice) Join(dst, src sliceFacts) sliceFacts {
	for k := range dst {
		if !src[k] {
			delete(dst, k)
		}
	}
	return dst
}
func (sliceLattice) Equal(a, b sliceFacts) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkHotFunc verifies one hot function: build the CFG, solve the
// preallocated-slice dataflow, then walk every reachable block flagging
// allocation sites against the facts at each point.
func checkHotFunc(pass *analysis.Pass, ann *annotations, fn *types.Func, fd *ast.FuncDecl) {
	g := cfg.New(fd.Body, cfg.Options{ConstCond: constCond(pass.TypesInfo)})
	reach := g.Reachable()

	h := &hotChecker{pass: pass, ann: ann, fn: fn, sig: fn.Type().(*types.Signature)}

	// Phase 1: solve the slice facts to a fixed point (no reporting).
	res := dataflow.Solve(g, dataflow.Forward, sliceLattice{}, sliceFacts{},
		func(b *cfg.Block, in sliceFacts) sliceFacts {
			for _, n := range b.Nodes {
				h.updateFacts(in, n)
			}
			return in
		})

	// Phase 2: replay each reachable block with reporting on, checking
	// every node against the facts holding at that exact point.
	for _, b := range g.Blocks {
		if !reach[b.Index] || !res.Defined[b.Index] {
			continue
		}
		facts := sliceLattice{}.Clone(res.In[b.Index])
		for _, n := range b.Nodes {
			h.checkNode(facts, n)
			h.updateFacts(facts, n)
		}
	}
}

// hotChecker carries the per-function state of one hotalloc check.
type hotChecker struct {
	pass *analysis.Pass
	ann  *annotations
	fn   *types.Func
	sig  *types.Signature
}

func (h *hotChecker) report(pos token.Pos, format string, args ...interface{}) {
	if h.ann.suppressed(h.pass, pos) {
		return
	}
	prefixed := append([]interface{}{h.fn.Name()}, args...)
	h.pass.Reportf(pos, "hot path (%s): "+format+"; hot-path code must not allocate (fix it or acknowledge with //simlint:partial <reason>)", prefixed...)
}

// localVar resolves an identifier to the local/parameter variable it
// names, or nil.
func (h *hotChecker) localVar(e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := h.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = h.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() == h.pass.Pkg.Scope() {
		return nil // package-level variable, not a function local
	}
	return v
}

// stableBase reports whether e is a field selector, index into one, or
// package-level variable — storage that outlives the call and so carries
// its capacity across invocations (the amortized-reuse idiom).
func (h *hotChecker) stableBase(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.SelectorExpr:
		// A field of a receiver/argument, or pkg.Var.
		return true
	case *ast.IndexExpr:
		return h.stableBase(e.X)
	case *ast.Ident:
		obj := h.pass.TypesInfo.Uses[e]
		v, ok := obj.(*types.Var)
		return ok && v.Parent() == h.pass.Pkg.Scope()
	}
	return false
}

// preallocated reports whether the append destination e is provably
// preallocated under facts: a reslice of stable storage, stable storage
// itself is NOT enough (append to c.buf directly still grows it), but a
// tracked local in the preallocated state is.
func (h *hotChecker) preallocated(facts sliceFacts, e ast.Expr) bool {
	if v := h.localVar(e); v != nil {
		return facts[v]
	}
	if se, ok := unparen(e).(*ast.SliceExpr); ok {
		return h.resliceOfStable(facts, se)
	}
	return false
}

// resliceOfStable reports whether se reslices storage whose capacity
// persists: a field/package var (c.buf[:0]) or a preallocated local.
func (h *hotChecker) resliceOfStable(facts sliceFacts, se *ast.SliceExpr) bool {
	if h.stableBase(se.X) {
		return true
	}
	if v := h.localVar(se.X); v != nil {
		return facts[v]
	}
	return false
}

// classifyRHS returns whether assigning rhs yields a preallocated slice.
func (h *hotChecker) classifyRHS(facts sliceFacts, lhs, rhs ast.Expr) bool {
	switch r := unparen(rhs).(type) {
	case *ast.SliceExpr:
		return h.resliceOfStable(facts, r)
	case *ast.CallExpr:
		switch fun := unparen(r.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "append" && len(r.Args) > 0 {
				// The append result keeps the destination's state; the
				// self-append idiom x = append(x, ...) on stable storage
				// is preallocated by amortization.
				if h.preallocated(facts, r.Args[0]) {
					return true
				}
				return h.stableBase(r.Args[0]) && exprEqual(lhs, r.Args[0])
			}
			if fun.Name == "make" && len(r.Args) == 3 {
				// make with explicit capacity: the make itself is flagged
				// as an allocation; once acknowledged, appends within the
				// capacity ride free.
				return true
			}
		}
	}
	return false
}

// updateFacts applies one node's effect on the preallocated-slice facts.
func (h *hotChecker) updateFacts(facts sliceFacts, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies run elsewhere
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			v := h.localVar(lhs)
			if v == nil || !isSliceType(v.Type()) {
				continue
			}
			if h.classifyRHS(facts, lhs, as.Rhs[i]) {
				facts[v] = true
			} else {
				delete(facts, v)
			}
		}
		return true
	})
}

// checkNode flags allocation sites within one CFG node.
func (h *hotChecker) checkNode(facts sliceFacts, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := h.captured(n); capt != "" {
				h.report(n.Pos(), "closure captures %s and escapes to the heap", capt)
			}
			return false // do not charge the closure's body to this function

		case *ast.GoStmt:
			h.report(n.Pos(), "go statement allocates a goroutine per call")

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					h.report(n.Pos(), "&composite literal escapes to the heap")
				}
			}

		case *ast.CompositeLit:
			t := h.pass.TypesInfo.Types[n].Type
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					h.report(n.Pos(), "%s literal allocates its backing store", typeKindWord(t))
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(h.pass.TypesInfo.Types[n.X].Type) {
				h.report(n.Pos(), "string concatenation builds a new string")
			}

		case *ast.AssignStmt:
			h.checkAssign(facts, n)

		case *ast.IncDecStmt:
			if idx, ok := unparen(n.X).(*ast.IndexExpr); ok && isMapIndex(h.pass.TypesInfo, idx) {
				h.report(n.Pos(), "map write may grow the map's buckets")
			}

		case *ast.ReturnStmt:
			h.checkReturn(n)

		case *ast.CallExpr:
			h.checkCall(facts, n)
		}
		return true
	})
}

// checkAssign flags string +=, map writes, and interface boxing through
// assignment.
func (h *hotChecker) checkAssign(facts sliceFacts, as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 &&
		isStringType(h.pass.TypesInfo.Types[as.Lhs[0]].Type) {
		h.report(as.Pos(), "string concatenation builds a new string")
	}
	for _, lhs := range as.Lhs {
		if idx, ok := unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(h.pass.TypesInfo, idx) {
			h.report(lhs.Pos(), "map write may grow the map's buckets")
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := h.pass.TypesInfo.Types[lhs].Type
		if lt == nil {
			if v := h.localVar(lhs); v != nil {
				lt = v.Type()
			}
		}
		h.checkBox(as.Rhs[i].Pos(), lt, as.Rhs[i])
	}
}

// checkReturn flags interface boxing through the function's results.
func (h *hotChecker) checkReturn(ret *ast.ReturnStmt) {
	results := h.sig.Results()
	if results.Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		h.checkBox(r.Pos(), results.At(i).Type(), r)
	}
}

// checkCall flags make/new, non-preallocated appends, string conversions,
// fmt calls, and interface boxing of arguments.
func (h *hotChecker) checkCall(facts sliceFacts, call *ast.CallExpr) {
	if fun, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := h.pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
			switch fun.Name {
			case "make":
				h.report(call.Pos(), "make allocates")
				return
			case "new":
				h.report(call.Pos(), "new allocates")
				return
			case "append":
				if len(call.Args) > 0 {
					h.checkAppend(facts, call)
				}
				return
			}
		}
	}

	// Conversions: string(bytes), []byte(str), interface conversions.
	if tv, ok := h.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, h.pass.TypesInfo.Types[call.Args[0]].Type
		if isStringType(to) && !isStringType(from) && from != nil {
			if _, ok := from.Underlying().(*types.Basic); !ok {
				h.report(call.Pos(), "string conversion copies the bytes")
			}
		}
		if isByteOrRuneSlice(to) && isStringType(from) {
			h.report(call.Pos(), "[]byte/[]rune conversion copies the string")
		}
		h.checkBox(call.Pos(), to, call.Args[0])
		return
	}

	// fmt is allocation by design (boxing plus formatting buffers).
	if callee := staticCallee(h.pass, call); callee != nil && callee.Pkg() != nil &&
		callee.Pkg().Path() == "fmt" {
		h.report(call.Pos(), "fmt.%s formats through the heap", callee.Name())
	}

	// Interface boxing of arguments against the callee's signature.
	sig, _ := h.pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if sig == nil || call.Ellipsis != token.NoPos {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			last := sig.Params().At(sig.Params().Len() - 1)
			if s, ok := last.Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		} else if i < sig.Params().Len() {
			pt = sig.Params().At(i).Type()
		}
		h.checkBox(arg.Pos(), pt, arg)
	}
}

// checkAppend flags appends whose destination is not provably preallocated
// at this program point.
func (h *hotChecker) checkAppend(facts sliceFacts, call *ast.CallExpr) {
	dst := call.Args[0]
	if h.preallocated(facts, dst) {
		return
	}
	if h.stableBase(dst) {
		// Self-append to stable storage (x.f = append(x.f, ...)) grows
		// amortized and reuses capacity across calls; anything else drags
		// a fresh copy out of stable storage every call.
		if as, ok := h.appendAssign(call); ok && exprEqual(as.Lhs[0], dst) {
			return
		}
	}
	h.report(call.Pos(), "append to a slice that is not provably preallocated on every path")
}

// appendAssign returns the single-assignment statement whose sole RHS is
// call, by re-walking the node — cheap because nodes are small.
func (h *hotChecker) appendAssign(call *ast.CallExpr) (*ast.AssignStmt, bool) {
	// The parent chain is not tracked; locate the assignment by matching
	// in the current file.
	var found *ast.AssignStmt
	for _, f := range h.pass.Files {
		if f.Pos() <= call.Pos() && call.End() <= f.End() {
			ast.Inspect(f, func(n ast.Node) bool {
				if found != nil {
					return false
				}
				as, ok := n.(*ast.AssignStmt)
				if ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 && unparen(as.Rhs[0]) == call {
					found = as
					return false
				}
				return true
			})
			break
		}
	}
	return found, found != nil
}

// checkBox reports interface boxing: a concrete, non-pointer-shaped value
// converted to an interface type allocates to give the interface a stable
// word to point at.
func (h *hotChecker) checkBox(pos token.Pos, to types.Type, from ast.Expr) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	tv, ok := h.pass.TypesInfo.Types[from]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	ft := tv.Type
	if types.IsInterface(ft) || isPointerShaped(ft) {
		return
	}
	h.report(pos, "%s boxed into %s allocates", types.TypeString(ft, types.RelativeTo(h.pass.Pkg)),
		types.TypeString(to, types.RelativeTo(h.pass.Pkg)))
}

// captured returns the name of a variable the closure captures from its
// enclosing function, or "".
func (h *hotChecker) captured(lit *ast.FuncLit) string {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := h.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == h.pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
		}
		return true
	})
	return name
}

// exprEqual compares two expressions structurally by their printed form.
func exprEqual(a, b ast.Expr) bool {
	return types.ExprString(a) == types.ExprString(b)
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.Types[idx.X].Type
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isPointerShaped reports whether values of t fit the interface data word
// without boxing: pointers, channels, maps, functions, unsafe.Pointer.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// typeKindWord names a slice or map type for diagnostics.
func typeKindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
