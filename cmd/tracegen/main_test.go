package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// TestSummarizeMatchesGenerator: -inspect's per-op counts of a generated
// file are the generator's own, op by op.
func TestSummarizeMatchesGenerator(t *testing.T) {
	const n = 20_000
	path := filepath.Join(t.TempDir(), "x.trace")
	generate("cactuBSSN", n, path)
	got, err := summarize(path)
	if err != nil {
		t.Fatal(err)
	}

	prof, _ := workload.SPECProfile("cactuBSSN")
	var want summary
	r := trace.NewLimit(workload.NewGenerator(prof), n)
	for u, ok := r.Next(); ok; u, ok = r.Next() {
		want.ops[u.Op]++
		want.flops += uint64(u.FLOPs())
		want.total++
	}
	if got != want {
		t.Fatalf("summary %+v\nwant    %+v", got, want)
	}
	if want.total != n || want.flops == 0 {
		t.Fatalf("generator gave %d uops and %d FLOPs: the test needs %d uops with FP work", want.total, want.flops, n)
	}
}

// TestSummarizeTornFile: a file cut inside a record is an error, not a
// shorter trace.
func TestSummarizeTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trace")
	generate("mcf", 1000, path)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	if _, err := summarize(path); !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("summarize of a torn file: err %v, want %v", err, trace.ErrTruncated)
	}
}
