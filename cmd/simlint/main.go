// Command simlint is the repo's invariant multichecker. It bundles the five
// analyzers of internal/analyzers (enumexhaustive, determinism,
// acctencapsulation, errcheckerr, staleannot) and runs as a vet tool, over
// test files too:
//
//	go build -o simlint ./cmd/simlint
//	go vet -vettool=$(pwd)/simlint ./...
//
// Any other invocation prints that usage line and exits 1. Under go vet a
// finding exits 1; the tool's own exit status per package is 0 clean, 1
// driver error, 2 findings. Findings are suppressed by a
// `//simlint:partial <reason>` annotation on the offending line or the line
// above it — the staleannot pass flags any suppression that stops earning
// its keep. See DESIGN.md §8 for the invariant catalogue and the runtime
// tests that own the contracts no analyzer checks.
package main

import (
	"perfstacks/internal/analysis"
	"perfstacks/internal/analyzers"
)

func main() {
	analysis.Main("simlint", analyzers.All()...)
}
