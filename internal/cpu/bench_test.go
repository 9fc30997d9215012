package cpu_test

import (
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// benchCore builds a warmed-up core streaming independent ALU uops. The
// warm-up steps grow the amortized staging buffers to their steady-state
// capacity so the timed region measures the true per-cycle cost.
func benchCore() *cpu.Core {
	m := config.BDW()
	hier := cache.NewHierarchy(m.Hierarchy)
	c := cpu.New(m.Core, hier, bpred.Perfect{}, linearTrace(1<<15))
	acct := core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth()})
	c.Attach(acct)
	for i := 0; i < 1024; i++ {
		c.Step()
	}
	return c
}

// BenchmarkCoreStep is the dynamic witness of the property the hotalloc
// analyzer proves statically: the bare per-cycle Step loop runs at
// 0 allocs/op. Core construction and trace refill happen off the clock.
// (BenchmarkSimulatorThroughput at the repo root measures the same loop
// end-to-end through sim.Run, including amortized setup.)
func BenchmarkCoreStep(b *testing.B) {
	c := benchCore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Step() {
			b.StopTimer()
			c = benchCore()
			b.StartTimer()
		}
	}
}

// BenchmarkCoreStepMemBound is BenchmarkCoreStep on the memory-bound mcf
// profile on BDW. Its reservation stations fill with entries waiting on
// cache misses, so it measures the select walk, the wakeups and the
// completion calendar, which the independent ALU stream of
// BenchmarkCoreStep never exercises: there no RS entry is ever non-ready.
func BenchmarkCoreStepMemBound(b *testing.B) {
	uops := genTrace(b, "mcf", 200_000)
	m := config.BDW()
	warm := func() *cpu.Core {
		c := cpu.New(m.Core, cache.NewHierarchy(m.Hierarchy), bpred.NewTournament(m.Bpred), trace.NewSlice(uops))
		c.Attach(core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth()}))
		for i := 0; i < 20_000; i++ {
			c.Step()
		}
		return c
	}
	c := warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Step() {
			b.StopTimer()
			c = warm()
			b.StartTimer()
		}
	}
}

// TestStepZeroAlloc pins the hot loop's allocation-free steady state: once
// a core is warm, Core.Step allocates nothing — no per-cycle staging, no
// wakeup-list growth, no squash or calendar bookkeeping. The branchy
// profile runs with synthesized wrong paths under a real predictor, so the
// measured window holds mispredicts and their squashes; the memory-bound
// profile queues misses far enough out that the window holds completion
// calendar events beyond its wheel, in the overflow list. The trace is
// generated up front: the generator's own lazily built tables are not the
// core's to account. A counting sink takes the samples; the accountants'
// Cycle methods have their own gates, and under simdebug their assertions
// box arguments.
func TestStepZeroAlloc(t *testing.T) {
	cells := []struct {
		name, profile string
		m             config.Machine
		wp            cpu.WrongPathMode
	}{
		{"BDW", "deepsjeng", config.BDW(), cpu.WrongPathSynth},
		{"KNL", "deepsjeng", config.KNL(), cpu.WrongPathSynth},
		{"SKX", "deepsjeng", config.SKX(), cpu.WrongPathSynth},
		{"mcf-BDW", "mcf", config.BDW(), cpu.WrongPathNone},
		{"mcf-KNL", "mcf", config.KNL(), cpu.WrongPathNone},
	}
	traces := map[string][]trace.Uop{}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			uops, ok := traces[cell.profile]
			if !ok {
				uops = genTrace(t, cell.profile, 150_000)
				traces[cell.profile] = uops
			}
			p := cell.m.Core
			p.WrongPath = cell.wp
			c := cpu.New(p, cache.NewHierarchy(cell.m.Hierarchy), bpred.NewTournament(cell.m.Bpred),
				trace.NewSlice(uops))
			var sink sampleCount
			c.Attach(&sink)
			for i := 0; i < 20_000; i++ {
				c.Step()
			}
			squashed := c.Stats.SquashedUops
			// spilled records whether a step grew the overflow list.
			over, spilled := c.CalendarOverflow(), false
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 1000; i++ {
					if !c.Step() {
						t.Fatal("trace drained inside the measured window")
					}
					n := c.CalendarOverflow()
					spilled = spilled || n > over
					over = n
				}
			})
			if allocs != 0 {
				t.Errorf("Core.Step allocates: %v allocs per 1000 steps", allocs)
			}
			if sink == 0 {
				t.Error("no samples emitted")
			}
			if cell.wp == cpu.WrongPathSynth && c.Stats.SquashedUops == squashed {
				t.Error("the measured window holds no wrong-path squash")
			}
			if cell.profile == "mcf" && !spilled {
				t.Error("the measured window holds no calendar overflow event")
			}
		})
	}
}

// genTrace generates n uops of a SPEC-like profile.
func genTrace(tb testing.TB, profile string, n int) []trace.Uop {
	tb.Helper()
	prof, ok := workload.SPECProfile(profile)
	if !ok {
		tb.Fatalf("unknown profile %s", profile)
	}
	uops := make([]trace.Uop, n)
	gen := workload.NewGenerator(prof)
	for i := range uops {
		if uops[i], ok = gen.Next(); !ok {
			tb.Fatal("generator drained")
		}
	}
	return uops
}

// sampleCount is an Accountant that only counts samples.
type sampleCount int

//simlint:partial counts samples, batched (Repeat > 1) or not; it measures no cycles
func (n *sampleCount) Cycle(*core.CycleSample) { *n++ }
