package sim

import (
	"errors"
	"fmt"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/faultinject"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// The two tests below keep the names they had when a parallel SMP harness
// was checked against sequential lockstep. With lockstep the only harness,
// each runs its gang twice and requires byte-identical results (the shared
// L3 slices and memory must not leak state or ordering between runs), then
// checks the coupling the case exists for.

// requireSMPEqual fails unless the two SMP results are byte-identical:
// every stack component, every per-core statistic, and the per-core error
// strings (fault messages embed the committed-uop count, so a divergent
// simulation shows up in the error text too).
func requireSMPEqual(t *testing.T, label string, a, b SMPResult) {
	t.Helper()
	if len(a.PerCore) != len(b.PerCore) {
		t.Fatalf("%s: per-core count %d vs %d", label, len(a.PerCore), len(b.PerCore))
	}
	for i := range a.PerCore {
		if a.PerCore[i] != b.PerCore[i] {
			t.Errorf("%s: core %d stats differ:\n%+v\n%+v", label, i, a.PerCore[i], b.PerCore[i])
		}
		ae, be := a.PerCoreErr[i], b.PerCoreErr[i]
		switch {
		case (ae == nil) != (be == nil):
			t.Errorf("%s: core %d error mismatch: %v vs %v", label, i, ae, be)
		case ae != nil && ae.Error() != be.Error():
			t.Errorf("%s: core %d error text differs:\n%v\n%v", label, i, ae, be)
		}
	}
	if (a.Err == nil) != (b.Err == nil) {
		t.Errorf("%s: aggregate error mismatch: %v vs %v", label, a.Err, b.Err)
	}
	if (a.Stacks == nil) != (b.Stacks == nil) {
		t.Fatalf("%s: stacks presence differs", label)
	}
	if a.Stacks != nil {
		for st := core.Stage(0); st < core.NumStages; st++ {
			x, y := a.Stacks.Stacks[st], b.Stacks.Stacks[st]
			if x.Cycles != y.Cycles || x.Instructions != y.Instructions {
				t.Errorf("%s: stage %v cycles/instructions differ: %d/%d vs %d/%d",
					label, st, x.Cycles, x.Instructions, y.Cycles, y.Instructions)
			}
			for c := core.Component(0); c < core.NumComponents; c++ {
				if x.Comp[c] != y.Comp[c] {
					t.Errorf("%s: stage %v component %v differs: %v vs %v",
						label, st, c, x.Comp[c], y.Comp[c])
				}
			}
		}
	}
	if a.FLOPS != b.FLOPS {
		t.Errorf("%s: FLOPS stacks differ:\n%+v\n%+v", label, a.FLOPS, b.FLOPS)
	}
}

// runTwiceSMP runs the same gang twice on fresh machines.
func runTwiceSMP(m config.Machine, n int, mk func(int) trace.Reader, opts Options) (first, second SMPResult) {
	return RunSMP(m, n, mk, opts), RunSMP(m, n, mk, opts)
}

// TestParallelSMPEquivalenceUnevenFinish covers the finish-release coupling:
// threads with different trace lengths leave the gang at different cycles,
// and a finish can be the arrival that releases a barrier round.
func TestParallelSMPEquivalenceUnevenFinish(t *testing.T) {
	m := config.SKX()
	length := func(tid int) uint64 { return uint64(8000 + 6000*tid) }
	mk := func(tid int) trace.Reader {
		k := workload.NewConv(workload.StyleSKX, workload.ConvTrain()[6],
			workload.ConvFwd, m.Core.VectorLanes, uint64(tid)+1, 2500)
		k.SetExtraOverhead(tid)
		return trace.NewLimit(k, length(tid))
	}
	for _, slices := range []int{1, 4} {
		t.Run(fmt.Sprintf("slices=%d", slices), func(t *testing.T) {
			mm := m
			mm.Hierarchy.L3Slices = slices
			first, second := runTwiceSMP(mm, 4, mk, Options{CPI: true})
			requireSMPEqual(t, "uneven-finish", first, second)
			if first.Err != nil {
				t.Fatal(first.Err)
			}
			for i, s := range first.PerCore {
				if s.Committed != length(i) {
					t.Fatalf("core %d committed %d, want %d", i, s.Committed, length(i))
				}
			}
			if first.Stacks.Stack(core.StageIssue).Comp[core.CompUnsched] <= 0 {
				t.Fatal("test workload should accumulate Unsched cycles")
			}
		})
	}
}

// TestParallelSMPEquivalenceFault injects a mid-trace stream fault on one
// core: the faulting core drains early, its finish releases its siblings'
// barriers, and the healthy cores still commit their whole traces. Both runs
// must agree on SMPResult.PerCoreErr down to the committed-uop count
// embedded in the error text.
func TestParallelSMPEquivalenceFault(t *testing.T) {
	m := config.SKX()
	const uops, faultCore = 20000, 1
	mk := func(tid int) trace.Reader {
		k := workload.NewConv(workload.StyleSKX, workload.ConvTrain()[6],
			workload.ConvFwd, m.Core.VectorLanes, uint64(tid)+1, 3000)
		k.SetExtraOverhead(tid * 2)
		if tid == faultCore {
			return faultinject.FailAfter(trace.NewLimit(k, uops), 7000, nil)
		}
		return trace.NewLimit(k, uops)
	}
	for _, slices := range []int{1, 4} {
		t.Run(fmt.Sprintf("slices=%d", slices), func(t *testing.T) {
			mm := m
			mm.Hierarchy.L3Slices = slices
			first, second := runTwiceSMP(mm, 3, mk, Options{CPI: true})
			requireSMPEqual(t, "fault", first, second)
			if first.Err == nil {
				t.Fatal("the gang error must be set")
			}
			for i, err := range first.PerCoreErr {
				if i == faultCore {
					if !errors.Is(err, faultinject.ErrInjected) {
						t.Fatalf("core %d error = %v", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("healthy core %d reported %v", i, err)
				}
				if got := first.PerCore[i].Committed; got != uops {
					t.Fatalf("healthy core %d committed %d, want %d", i, got, uops)
				}
			}
		})
	}
}
