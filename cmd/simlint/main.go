// Command simlint is the repo's invariant multichecker. It bundles the
// ten analyzers of internal/analyzers (enumexhaustive, repeataware,
// batchingest, determinism, acctencapsulation, errcheckerr, handlerctx,
// hotalloc, atomicmix, staleannot) behind the two driver modes
// of internal/analysis:
//
//	simlint ./...                           standalone, over go list patterns
//	simlint -json ./...                     sorted JSON findings array
//	simlint -sarif ./...                    SARIF 2.1.0 log (CI artifact)
//	go vet -vettool=$(pwd)/simlint ./...    as a vet tool (analyzes tests too)
//
// Machine-readable output is stably ordered (file, line, column, analyzer,
// message). Exit status: 0 clean, 1 driver or analysis error (dominates),
// 2 findings. Findings are suppressed by a `//simlint:partial <reason>`
// annotation on the offending line or the line above it — the staleannot
// pass flags any suppression that stops earning its keep. Hot-path
// functions are marked `//simlint:hotpath`; see DESIGN.md §8 for the
// invariant catalogue and §12 for the flow-sensitive tier.
package main

import (
	"perfstacks/internal/analysis"
	"perfstacks/internal/analyzers"
)

func main() {
	analysis.Main("simlint", analyzers.All()...)
}
