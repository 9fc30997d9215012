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

// TestStepZeroAlloc pins the hot loop's allocation-free steady state: once
// a core is warm, Core.Step allocates nothing — no per-cycle staging, no
// wakeup-list growth, no squash bookkeeping. The branchy profile runs with
// synthesized wrong paths under a real predictor, so the measured window
// holds mispredicts and their squashes. The trace is generated up front:
// the generator's own lazily built tables are not the core's to account.
// A counting sink takes the samples; the accountants' Cycle methods have
// their own gates, and under simdebug their assertions box arguments.
func TestStepZeroAlloc(t *testing.T) {
	prof, ok := workload.SPECProfile("deepsjeng")
	if !ok {
		t.Fatal("unknown profile deepsjeng")
	}
	uops := make([]trace.Uop, 150_000)
	gen := workload.NewGenerator(prof)
	for i := range uops {
		if uops[i], ok = gen.Next(); !ok {
			t.Fatal("generator drained")
		}
	}
	for _, m := range []config.Machine{config.BDW(), config.KNL(), config.SKX()} {
		t.Run(m.Name, func(t *testing.T) {
			p := m.Core
			p.WrongPath = cpu.WrongPathSynth
			c := cpu.New(p, cache.NewHierarchy(m.Hierarchy), bpred.NewTournament(m.Bpred),
				trace.NewSlice(uops))
			var sink sampleCount
			c.Attach(&sink)
			for i := 0; i < 20_000; i++ {
				c.Step()
			}
			squashed := c.Stats.SquashedUops
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 1000; i++ {
					if !c.Step() {
						t.Fatal("trace drained inside the measured window")
					}
				}
			})
			if allocs != 0 {
				t.Errorf("Core.Step allocates: %v allocs per 1000 steps", allocs)
			}
			if sink == 0 {
				t.Error("no samples emitted")
			}
			if c.Stats.SquashedUops == squashed {
				t.Error("the measured window holds no wrong-path squash")
			}
		})
	}
}

// sampleCount is an Accountant that only counts samples.
type sampleCount int

//simlint:partial counts samples, batched (Repeat > 1) or not; it measures no cycles
func (n *sampleCount) Cycle(*core.CycleSample) { *n++ }
