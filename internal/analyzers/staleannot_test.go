package analyzers

import (
	"testing"

	"perfstacks/internal/analysis/analysistest"
)

func TestStaleAnnot(t *testing.T) {
	analysistest.Run(t, StaleAnnot, analysistest.Package{
		Path: "example.com/fake/modes",
		Files: map[string]string{
			"modes.go": `package modes

type Mode int

const (
	ModeA Mode = iota
	ModeB
	ModeC
	NumModes
)

// weight's partial is live: the audit re-run of enumexhaustive still
// raises the missing-ModeC finding on the switch below it, so the
// suppression is doing work.
func weight(m Mode) int {
	//simlint:partial ModeC weighs nothing, reviewed
	switch m {
	case ModeA:
		return 1
	case ModeB:
		return 2
	}
	return 0
}

// fixed's switch was made exhaustive but the suppression was left behind —
// the deleted-without-cleanup case the audit exists to catch.
func fixed(m Mode) int {
	//simlint:partial ModeC used to be missing here // want ` + "`" + `stale simlint:partial annotation` + "`" + `
	switch m {
	case ModeA, ModeB, ModeC:
		return 1
	}
	return 0
}

//simlint:partial orphaned by a refactor // want ` + "`" + `anchors to no code` + "`" + `

func anchor() {}
`,
		},
	})
}
