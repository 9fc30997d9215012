package analyzers

import (
	"go/ast"
	"go/types"

	"perfstacks/internal/analysis"
)

// ErrCheckErr enforces the consumer side of the trace.ErrReader contract: a
// trace reader's Next/ReadBatch returning "no more uops" is ambiguous — it
// means either a clean end of stream or a fault (torn file, I/O error) that
// truncated the stream mid-run. Any non-test function that drains a reader in
// a loop must therefore also consult the error channel (reader.Err() or
// trace.ErrOf) somewhere in the same function; otherwise a truncated input
// silently produces plausible-looking partial results. Layers that forward
// the check upward by contract (the cpu frontend defers to sim.Run's
// end-of-run check) acknowledge the finding with a reasoned
// //simlint:partial annotation.
//
// The packages that implement the contract — internal/trace's own wrappers
// and internal/faultinject's fault injectors — are exempt: their drain loops
// are the propagation machinery itself.
var ErrCheckErr = &analysis.Analyzer{
	Name: "errcheckerr",
	Doc:  "loops draining a trace reader must check Err() (or trace.ErrOf) in the same function",
	Run:  runErrCheckErr,
}

func runErrCheckErr(pass *analysis.Pass) (interface{}, error) {
	for _, exempt := range []string{"internal/trace", "internal/faultinject"} {
		if pkgSuffix(pass.Pkg.Path(), exempt) {
			return nil, nil
		}
	}
	ann := gatherAnnotations(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || isTestFile(pass.Fset, fn.Pos()) {
				continue
			}
			checkFuncDrains(pass, ann, fn)
		}
	}
	return nil, nil
}

// checkFuncDrains flags drain loops inside fn when fn never consults the
// reader error channel. The function is the scope of the check: the drain
// and the Err consultation may be in different statements (drain loop, then
// Err()), which is the canonical pattern.
func checkFuncDrains(pass *analysis.Pass, ann *annotations, fn *ast.FuncDecl) {
	if funcChecksErr(pass, fn.Body) {
		return
	}
	var loopDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			for _, child := range childNodes(n) {
				ast.Inspect(child, walk)
			}
			loopDepth--
			return false
		case *ast.CallExpr:
			if loopDepth == 0 {
				return true
			}
			if !isUopNextCall(pass, n) && !isUopReadBatchCall(pass, n) {
				return true
			}
			if ann.suppressed(pass, n.Pos()) {
				return true
			}
			pass.Reportf(n.Pos(), "trace reader drained without an Err() check: end-of-stream is ambiguous (clean EOF vs fault); call Err() or trace.ErrOf in this function, or acknowledge with //simlint:partial <reason>")
			return true
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// childNodes returns the sub-nodes of a for/range statement so the walker
// can recurse with loop depth tracked (init/cond/post of a for are outside
// the repeated body only syntactically; a reader call anywhere in the loop
// statement repeats per iteration).
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	switch n := n.(type) {
	case *ast.ForStmt:
		if n.Init != nil {
			out = append(out, n.Init)
		}
		if n.Cond != nil {
			out = append(out, n.Cond)
		}
		if n.Post != nil {
			out = append(out, n.Post)
		}
		if n.Body != nil {
			out = append(out, n.Body)
		}
	case *ast.RangeStmt:
		if n.X != nil {
			out = append(out, n.X)
		}
		if n.Body != nil {
			out = append(out, n.Body)
		}
	}
	return out
}

// funcChecksErr reports whether the body consults a reader error channel:
// a niladic Err() method call returning exactly one error, or any call to a
// function named ErrOf (trace.ErrOf and equivalents).
func funcChecksErr(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "ErrOf" {
				found = true
				return false
			}
			if fun.Sel.Name == "Err" && len(call.Args) == 0 && isErrMethod(pass, call) {
				found = true
				return false
			}
		case *ast.Ident:
			if fun.Name == "ErrOf" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isErrMethod reports whether call has the shape func() error.
func isErrMethod(pass *analysis.Pass, call *ast.CallExpr) bool {
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil // the built-in error type
}

// isUopNextCall reports whether call is a method call shaped like
// trace.Reader.Next: no parameters, results (trace.Uop, bool). Matching on
// the signature (rather than the static receiver type) catches every Reader
// implementation and the BatchReader interface's embedded Next alike.
func isUopNextCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 2 {
		return false
	}
	if basic, ok := sig.Results().At(1).Type().(*types.Basic); !ok || basic.Kind() != types.Bool {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Uop" && obj.Pkg() != nil && pkgSuffix(obj.Pkg().Path(), "internal/trace")
}

// isUopReadBatchCall reports whether call is shaped like
// trace.BatchReader.ReadBatch: one []trace.Uop parameter, one int result.
func isUopReadBatchCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ReadBatch" {
		return false
	}
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if basic, ok := sig.Results().At(0).Type().(*types.Basic); !ok || basic.Kind() != types.Int {
		return false
	}
	slice, ok := sig.Params().At(0).Type().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := slice.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Uop" && obj.Pkg() != nil && pkgSuffix(obj.Pkg().Path(), "internal/trace")
}
