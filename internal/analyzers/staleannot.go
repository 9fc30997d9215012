package analyzers

import (
	"go/ast"
	"go/token"

	"perfstacks/internal/analysis"
)

// StaleAnnot audits the suppression annotations the rest of the suite
// consults. An annotation is a standing claim — "this finding was reviewed
// and accepted" — and a claim that outlives the code it was written for is
// worse than none: it silences the next real finding that lands on the
// same line. StaleAnnot keeps the annotation set honest:
//
//   - a //simlint:partial that no longer suppresses any finding of the
//     other four analyzers is stale and must be deleted (the finding was
//     fixed, or the code moved out from under the comment);
//   - a marker sitting against blank lines — no code on its own line or
//     the line below — anchors to nothing and is flagged before the drift
//     can silence anything.
//
// Liveness is established by re-running the sibling analyzers over the same
// package with a discarding reporter while annotationUses records every
// suppression consulted (see annotations.suppressed). This keeps StaleAnnot
// self-contained — it works identically under analysistest and under
// `go vet -vettool` — at the cost of the suite running twice when it is
// enabled. It must be last in All() only for report ordering; correctness
// does not depend on position.
var StaleAnnot = &analysis.Analyzer{
	Name: "staleannot",
	Doc:  "every //simlint:partial annotation must still suppress a live finding",
}

// Run is bound in init: runStaleAnnot calls All() to re-run its siblings,
// and All() lists StaleAnnot, so a literal Run field would be an
// initialization cycle.
func init() { StaleAnnot.Run = runStaleAnnot }

func runStaleAnnot(pass *analysis.Pass) (interface{}, error) {
	partials := gatherMarked(pass)
	if len(partials) == 0 {
		return nil, nil
	}

	// Liveness audit: re-run the sibling analyzers with a discarding
	// reporter and record which partial annotations they consult.
	annotationUses = make(map[string]bool)
	defer func() { annotationUses = nil }()
	for _, a := range All() {
		if a == StaleAnnot {
			continue
		}
		shadow := &analysis.Pass{
			Analyzer:  a,
			Fset:      pass.Fset,
			Files:     pass.Files,
			Pkg:       pass.Pkg,
			TypesInfo: pass.TypesInfo,
			Report:    func(analysis.Diagnostic) {},
		}
		if _, err := a.Run(shadow); err != nil {
			return nil, err
		}
	}

	codeLines := gatherCodeLines(pass)
	for _, m := range partials {
		switch {
		case !anchorsToCode(codeLines, m):
			pass.Reportf(m.pos, "simlint:partial annotation anchors to no code (blank line): move it onto or directly above the finding it acknowledges, or delete it")
		case !annotationUses[useKey(m.file, m.line)]:
			pass.Reportf(m.pos, "stale simlint:partial annotation: it no longer suppresses any finding — the finding was fixed or the code moved; delete the annotation")
		}
	}
	return nil, nil
}

// gatherCodeLines maps each file to the set of lines carrying code (any
// non-comment AST node). Comments and blank lines are absent.
func gatherCodeLines(pass *analysis.Pass) map[string]map[int]bool {
	lines := make(map[string]map[int]bool)
	mark := func(pos token.Pos) {
		if !pos.IsValid() {
			return
		}
		p := pass.Fset.Position(pos)
		fm := lines[p.Filename]
		if fm == nil {
			fm = make(map[int]bool)
			lines[p.Filename] = fm
		}
		fm[p.Line] = true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
				return true
			}
			mark(n.Pos())
			mark(n.End())
			return true
		})
	}
	return lines
}

// anchorsToCode reports whether annotation m has code on its own line or
// the line directly below — the two positions annotations.suppressed
// consults.
func anchorsToCode(codeLines map[string]map[int]bool, m marked) bool {
	fm := codeLines[m.file]
	return fm != nil && (fm[m.line] || fm[m.line+1])
}
