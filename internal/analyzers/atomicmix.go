package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"perfstacks/internal/analysis"
	"perfstacks/internal/analysis/cfg"
	"perfstacks/internal/analysis/dataflow"
)

// AtomicMix enforces the atomic publication discipline: a field that is
// ever accessed through sync/atomic — the service's metrics and the result
// cache's hit/miss counters are the current cases — must never be read or
// written with a plain load/store. Mixed access is a data race the memory
// model gives no meaning to, and `-race` only catches it on the
// interleavings a test happens to exercise; this pass closes that gap
// statically, on every path of every build.
//
// Two access styles are understood:
//
//   - Function-API atomics (atomic.LoadInt64(&s.f), atomic.AddUint32(&s.f)):
//     the addressed field is atomic; any other use of that field is a plain
//     access and is flagged.
//   - Typed atomics (a field of type sync/atomic.Int64, .Bool, ... or a
//     slice/array of them): method calls (Load/Store/Add/Swap/CAS) are the
//     only legal access; assigning the field or an element (g.progress[i] =
//     atomic.Int64{} — the classic "reset by overwrite" bug) or copying its
//     value out is flagged.
//
// The check is flow-sensitive about the one legitimate exception: the
// pre-publication window. A constructor may plainly initialize atomic
// fields of an object that no other goroutine can see yet. A forward Must
// dataflow tracks locals holding freshly created objects (x := &T{...},
// new(T)) and considers them unpublished until they escape — assigned to a
// field/global, passed to a call, captured by a closure, sent, or returned
// — so plain stores through an unpublished local pass without annotation,
// and the same store after escape is flagged. Windows the analysis cannot
// see (two-phase init documented in the file) are acknowledged with a
// reasoned //simlint:partial.
var AtomicMix = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "a field accessed via sync/atomic must never see a plain load/store outside the pre-publication window",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *analysis.Pass) (interface{}, error) {
	ann := gatherAnnotations(pass)

	// Pass 1: collect the package's atomic fields — struct fields (and
	// package vars) addressed by sync/atomic calls or declared with a
	// typed-atomic type.
	atomicVars := make(map[*types.Var]bool)
	walkFiles(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isAtomicFuncCall(pass, call) || len(call.Args) == 0 {
			return true
		}
		if u, ok := unparen(call.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
			if v := addressedVar(pass, u.X); v != nil {
				atomicVars[v] = true
			}
		}
		return true
	})
	// Typed atomics: every field/package var whose type is (or contains,
	// via slice/array/pointer, a) sync/atomic type.
	typedAtomic := func(v *types.Var) bool { return containsAtomicType(v.Type()) }

	if len(atomicVars) == 0 {
		// Fast path: a package with no function-API atomics may still
		// misuse typed atomics; scan for those only if the package
		// imports sync/atomic at all.
		if !importsAtomic(pass) {
			return nil, nil
		}
	}

	// Pass 2: walk every function, flagging plain accesses outside the
	// pre-publication window.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkAtomicFunc(pass, ann, fd, atomicVars, typedAtomic)
		}
	}
	return nil, nil
}

// pubFacts is the Must dataflow domain: locals that provably hold an
// object unpublished to other goroutines. Join is intersection.
type pubFacts map[*types.Var]bool

type pubLattice struct{}

func (pubLattice) Clone(f pubFacts) pubFacts {
	c := make(pubFacts, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}
func (pubLattice) Join(dst, src pubFacts) pubFacts {
	for k := range dst {
		if !src[k] {
			delete(dst, k)
		}
	}
	return dst
}
func (pubLattice) Equal(a, b pubFacts) bool {
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

func checkAtomicFunc(pass *analysis.Pass, ann *annotations, fd *ast.FuncDecl,
	atomicVars map[*types.Var]bool, typedAtomic func(*types.Var) bool) {

	g := cfg.New(fd.Body, cfg.Options{ConstCond: constCond(pass.TypesInfo)})
	reach := g.Reachable()
	c := &atomicChecker{pass: pass, ann: ann, atomicVars: atomicVars, typedAtomic: typedAtomic}

	res := dataflow.Solve(g, dataflow.Forward, pubLattice{}, pubFacts{},
		func(b *cfg.Block, in pubFacts) pubFacts {
			for _, n := range b.Nodes {
				c.updatePub(in, n)
			}
			return in
		})

	for _, b := range g.Blocks {
		if !reach[b.Index] || !res.Defined[b.Index] {
			continue
		}
		facts := pubLattice{}.Clone(res.In[b.Index])
		for _, n := range b.Nodes {
			c.checkNode(facts, n)
			c.updatePub(facts, n)
		}
	}
}

type atomicChecker struct {
	pass        *analysis.Pass
	ann         *annotations
	atomicVars  map[*types.Var]bool
	typedAtomic func(*types.Var) bool
}

// updatePub applies one node's effect on the unpublished-locals facts:
// fresh allocations gain the unpublished state, escapes lose it.
func (c *atomicChecker) updatePub(facts pubFacts, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					v := localOf(c.pass, lhs)
					if v == nil {
						continue
					}
					if isFreshAlloc(n.Rhs[i]) {
						facts[v] = true
					} else {
						delete(facts, v)
					}
				}
			}
			// A local stored anywhere but another tracked local escapes.
			for _, rhs := range n.Rhs {
				c.escapeExpr(facts, rhs, n)
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if v := localOf(c.pass, arg); v != nil {
					delete(facts, v)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if v := localOf(c.pass, r); v != nil {
					delete(facts, v)
				}
			}
		case *ast.SendStmt:
			if v := localOf(c.pass, n.Value); v != nil {
				delete(facts, v)
			}
		case *ast.FuncLit:
			// Captured locals escape with the closure.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
						delete(facts, v)
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// escapeExpr kills the unpublished state of a local whose value flows into
// non-local storage on the RHS of an assignment whose LHS is not a plain
// local (field store, global store, index store).
func (c *atomicChecker) escapeExpr(facts pubFacts, rhs ast.Expr, as *ast.AssignStmt) {
	v := localOf(c.pass, rhs)
	if v == nil {
		return
	}
	for _, lhs := range as.Lhs {
		if localOf(c.pass, lhs) == nil {
			delete(facts, v)
			return
		}
	}
}

// checkNode flags plain accesses to atomic variables within one node.
func (c *atomicChecker) checkNode(facts pubFacts, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isAtomicFuncCall(c.pass, n) {
				// The &field argument of an atomic call is the sanctioned
				// access; skip the call's first argument subtree.
				for i, arg := range n.Args {
					if i == 0 {
						continue
					}
					c.checkNode(facts, arg)
				}
				return false
			}
			if isTypedAtomicMethodCall(c.pass, n) {
				// g.progress[i].Store(x): the receiver chain is the
				// sanctioned access; check only the value arguments.
				for _, arg := range n.Args {
					c.checkNode(facts, arg)
				}
				return false
			}

		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkWrite(facts, lhs)
			}
			for _, rhs := range n.Rhs {
				c.checkNode(facts, rhs)
			}
			return false

		case *ast.IncDecStmt:
			c.checkWrite(facts, n.X)
			return false

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// &s.f outside an atomic call: taking the address is not
				// itself a data race; the use it feeds will be checked
				// where it lands. Skip to avoid double reports.
				return false
			}

		case *ast.SelectorExpr:
			c.checkRead(facts, n)
			return false

		case *ast.Ident:
			c.checkReadIdent(facts, n)
		}
		return true
	})
}

// checkWrite flags a plain store to an atomic field/var or a typed-atomic
// overwrite.
func (c *atomicChecker) checkWrite(facts pubFacts, lhs ast.Expr) {
	v := accessedVar(c.pass, lhs)
	if v == nil {
		return
	}
	if c.atomicVars[v] {
		if c.unpublished(facts, lhs) || c.ann.suppressed(c.pass, lhs.Pos()) {
			return
		}
		c.pass.Reportf(lhs.Pos(), "plain store to %s, which is accessed with sync/atomic elsewhere: a mixed access is a data race; use the atomic API (or annotate the documented pre-publication window with //simlint:partial <reason>)", v.Name())
		return
	}
	if c.typedAtomic(v) {
		if c.unpublished(facts, lhs) || c.ann.suppressed(c.pass, lhs.Pos()) {
			return
		}
		c.pass.Reportf(lhs.Pos(), "plain overwrite of atomic-typed %s: assignment bypasses the atomic API and tears concurrent readers; use Store (or annotate the documented pre-publication window with //simlint:partial <reason>)", v.Name())
	}
}

// checkRead flags a plain load of a function-API atomic field.
func (c *atomicChecker) checkRead(facts pubFacts, sel *ast.SelectorExpr) {
	v := accessedVar(c.pass, sel)
	if v == nil || !c.atomicVars[v] {
		// Still descend into the receiver expression for nested access.
		c.checkNode(facts, sel.X)
		return
	}
	if c.unpublished(facts, sel) || c.ann.suppressed(c.pass, sel.Pos()) {
		return
	}
	c.pass.Reportf(sel.Pos(), "plain load of %s, which is accessed with sync/atomic elsewhere: a mixed access is a data race; use the atomic API (or annotate the documented pre-publication window with //simlint:partial <reason>)", v.Name())
}

// checkReadIdent is checkRead for package-level atomic vars.
func (c *atomicChecker) checkReadIdent(facts pubFacts, id *ast.Ident) {
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() || !c.atomicVars[v] {
		return
	}
	if v.Parent() != c.pass.Pkg.Scope() {
		return
	}
	if c.ann.suppressed(c.pass, id.Pos()) {
		return
	}
	c.pass.Reportf(id.Pos(), "plain load of %s, which is accessed with sync/atomic elsewhere: a mixed access is a data race; use the atomic API (or annotate the documented pre-publication window with //simlint:partial <reason>)", v.Name())
}

// unpublished reports whether the access expression's base object is a
// local still in the pre-publication window.
func (c *atomicChecker) unpublished(facts pubFacts, e ast.Expr) bool {
	base := e
	for {
		switch b := unparen(base).(type) {
		case *ast.SelectorExpr:
			base = b.X
			continue
		case *ast.IndexExpr:
			base = b.X
			continue
		case *ast.StarExpr:
			base = b.X
			continue
		}
		break
	}
	v := localOf(c.pass, base)
	return v != nil && facts[v]
}

// localOf resolves e to a function-local variable object, or nil.
func localOf(pass *analysis.Pass, e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Parent() == pass.Pkg.Scope() {
		return nil
	}
	return v
}

// isFreshAlloc reports whether rhs creates an object no other goroutine
// can reference yet: &T{...}, new(T), or a composite literal.
func isFreshAlloc(rhs ast.Expr) bool {
	switch r := unparen(rhs).(type) {
	case *ast.UnaryExpr:
		if r.Op == token.AND {
			_, ok := unparen(r.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := unparen(r.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// accessedVar resolves an lvalue/selector expression to the struct field
// or package variable it denotes, looking through indexing and derefs.
func accessedVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	switch e := unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		// Package-qualified var: pkg.V.
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && !v.IsField() {
			return v
		}
	case *ast.IndexExpr:
		return accessedVar(pass, e.X)
	case *ast.StarExpr:
		return accessedVar(pass, e.X)
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && !v.IsField() && v.Parent() == pass.Pkg.Scope() {
			return v
		}
	}
	return nil
}

// addressedVar resolves the &operand of an atomic call to the field or
// package var it addresses.
func addressedVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	return accessedVar(pass, e)
}

// isAtomicFuncCall reports whether call invokes a function of sync/atomic
// (the function API: LoadInt64, StorePointer, AddUint32, ...).
func isAtomicFuncCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	if f.Pkg().Path() != "sync/atomic" {
		return false
	}
	// Methods on atomic.Int64 etc. also live in sync/atomic; the function
	// API has no receiver.
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isTypedAtomicMethodCall reports whether call is a method call on a
// sync/atomic type (atomic.Int64.Store and friends).
func isTypedAtomicMethodCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// containsAtomicType reports whether t is, or contains through
// slices/arrays/pointers, a type declared in sync/atomic.
func containsAtomicType(t types.Type) bool {
	switch u := t.(type) {
	case *types.Named:
		obj := u.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			return true
		}
		return containsAtomicType(u.Underlying())
	case *types.Slice:
		return containsAtomicType(u.Elem())
	case *types.Array:
		return containsAtomicType(u.Elem())
	case *types.Pointer:
		return containsAtomicType(u.Elem())
	}
	return false
}

// importsAtomic reports whether any file of the pass imports sync/atomic.
func importsAtomic(pass *analysis.Pass) bool {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == "sync/atomic" {
			return true
		}
	}
	return false
}
