package analysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func unordered() []Finding {
	return []Finding{
		{File: "b.go", Line: 3, Column: 1, Analyzer: "zeta", Message: "m1"},
		{File: "a.go", Line: 9, Column: 2, Analyzer: "beta", Message: "m2"},
		{File: "a.go", Line: 9, Column: 2, Analyzer: "alpha", Message: "m3"},
		{File: "a.go", Line: 2, Column: 7, Analyzer: "beta", Message: "m4"},
	}
}

func TestSortFindingsStableOrder(t *testing.T) {
	fs := unordered()
	sortFindings(fs)
	got := make([]string, len(fs))
	for i, f := range fs {
		got[i] = f.File + "/" + f.Analyzer
	}
	want := []string{"a.go/beta", "a.go/alpha", "a.go/beta", "b.go/zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
	if fs[1].Line != 9 || fs[2].Line != 9 || fs[1].Analyzer != "alpha" {
		t.Errorf("same-position findings not ordered by analyzer: %+v", fs[1:3])
	}
}

func TestWriteJSONFindingsEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSONFindings(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty run = %q, want []", got)
	}
}

func TestWriteSARIFShape(t *testing.T) {
	a := &Analyzer{Name: "determinism", Doc: "no wall-clock time in simulation packages"}
	fs := []Finding{{File: "x.go", Line: 5, Column: 3, Analyzer: "determinism", Message: "boom"}}
	var buf bytes.Buffer
	if err := writeSARIF(&buf, "simlint", []*Analyzer{a}, fs); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q runs %d, want 2.1.0 and 1", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "simlint" || len(run.Tool.Driver.Rules) != 1 ||
		run.Tool.Driver.Rules[0].ID != "determinism" {
		t.Errorf("driver/rules wrong: %+v", run.Tool.Driver)
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(run.Results))
	}
	r := run.Results[0]
	loc := r.Locations[0].PhysicalLocation
	if r.RuleID != "determinism" || r.Level != "warning" || r.Message.Text != "boom" ||
		loc.Region.StartLine != 5 || loc.Region.StartColumn != 3 {
		t.Errorf("result wrong: %+v", r)
	}

	// A clean run still renders a log with the rules and an empty results
	// array — "checked and found nothing" is a positive statement.
	buf.Reset()
	if err := writeSARIF(&buf, "simlint", []*Analyzer{a}, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if log.Runs[0].Results == nil || len(log.Runs[0].Results) != 0 {
		t.Errorf("clean run results = %#v, want empty non-nil array", log.Runs[0].Results)
	}
}
