package sim

import (
	"testing"

	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// TestSpeculativePendingPeakIsFlat runs the wrong-path study's speculative
// cell (deepsjeng on BDW over synthesized wrong paths) at two lengths: the
// buffer's high-water mark is a count fixed by the pipeline, so a longer
// run must not raise it, and it stays within pendingBound. (The mark is
// reached between 30k and 35k uops. When dead cycles after a squash went
// to wrong-path seqs, it grew with run length: a 50k-uop run ended with
// 12k entries buffered.)
func TestSpeculativePendingPeakIsFlat(t *testing.T) {
	prof, _ := workload.SPECProfile("deepsjeng")
	m := config.BDW()
	m.Core.WrongPath = cpu.WrongPathSynth
	bound := pendingBound(m.Core)
	peak := func(uops uint64) int {
		c := cpu.New(m.Core, cache.NewHierarchy(m.Hierarchy), newPredictor(m),
			trace.NewLimit(workload.NewGenerator(prof), uops))
		a := core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth(),
			Scheme: core.WrongPathSpeculative, PendingBound: bound})
		c.Attach(a)
		c.Run()
		return a.PendingPeak()
	}
	short, long := peak(50_000), peak(200_000)
	if short == 0 || long != short {
		t.Fatalf("pending high-water mark %d at 50k uops, %d at 200k: want equal and nonzero", short, long)
	}
	if long > bound {
		t.Fatalf("pending high-water mark %d exceeds the bound %d", long, bound)
	}
}
