// Package analyzers holds the simlint suite: five static-analysis passes
// that machine-check the accounting core's structural invariants — the
// conventions that make every CPI/FLOPS stack sum exactly to total cycles —
// and the error-propagation contract.
//
//   - enumexhaustive: switches over accounting enums cover every value (or
//     carry a //simlint:partial annotation) and fixed arrays indexed by such
//     enums are sized by their Num* sentinel.
//   - determinism: no wall-clock time, global math/rand, or map-iteration
//     accumulation inside the simulation packages.
//   - acctencapsulation: stack accumulator fields are written only from
//     their accountant's own file set.
//   - errcheckerr: non-test code that drains a trace reader to exhaustion
//     also checks the reader's Err() (or trace.ErrOf) in the same function,
//     so a faulted stream can never pass for a clean end of trace.
//   - staleannot: every //simlint:partial still suppresses a live finding.
//
// Contracts a runtime test can fail on are left to that test, not an
// analyzer: the hot path's allocation freedom and its batch-only trace
// ingestion (cpu.TestHotPathZeroAlloc), the accountants' handling of batched
// Repeat samples (sim.TestSkipEquivalence), and the service handlers'
// request-context propagation (service.TestClientDisconnectCancelsSimulation
// and TestSensitivityCancellation). DESIGN.md §8 lists the enforced
// invariants; cmd/simlint is the `go vet -vettool` binary that runs the
// suite.
package analyzers

import (
	"go/ast"
	"go/token"
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
		Determinism,
		AcctEncapsulation,
		ErrCheckErr,
		StaleAnnot,
	}
}

// partialPrefix is the one annotation marker the suite understands: it
// acknowledges a reviewed finding and must carry a reason.
const partialPrefix = "//simlint:partial"

// marked is one parsed simlint:partial annotation comment.
type marked struct {
	pos  token.Pos
	file string
	line int
	// text is what follows the marker: the reason.
	text string
}

// gatherMarked returns every comment of the pass's files that starts with
// the partial marker followed by a word boundary, in file/position order.
// The suppressing analyzers and staleannot's audit both read annotations
// through here, so they cannot drift apart in tokenization.
func gatherMarked(pass *analysis.Pass) []marked {
	var out []marked
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, partialPrefix) {
					continue
				}
				rest := c.Text[len(partialPrefix):]
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
	for _, m := range gatherMarked(pass) {
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
