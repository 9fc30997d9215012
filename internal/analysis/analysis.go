// Package analysis is a self-contained, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis core: an Analyzer/Pass/Diagnostic model
// plus the one driver the repo needs, the `go vet -vettool` unitchecker
// protocol (see unitchecker.go).
//
// It exists because this repository builds hermetically with no module
// dependencies. The API mirrors x/tools deliberately: an analyzer written
// against this package ports to the real framework by changing one import
// path. Only the subset the simlint suite needs is implemented — in
// particular there are no cross-package facts and no sub-analyzer
// dependencies; every analyzer sees one type-checked package at a time.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package. The returned value is
	// ignored by the driver in this repo (x/tools uses it for analyzer
	// dependencies, which this clone does not support).
	Run func(*Pass) (interface{}, error)
}

// Pass carries one type-checked package to an Analyzer's Run function.
type Pass struct {
	// Analyzer is the analyzer being applied.
	Analyzer *Analyzer
	// Fset maps token positions to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message describes it. By convention it does not end in a period.
	Message string
}

// run applies every analyzer to one loaded package and returns the combined
// diagnostics, analyzer by analyzer.
func run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		pass.Report = func(d Diagnostic) {
			out = append(out, d)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	return out, nil
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
