package core

import (
	"math"
	"strings"
	"testing"
)

func mkStack(st Stage, cycles int64, insts uint64, comps map[Component]float64) Stack {
	s := Stack{Stage: st, Width: 4, Cycles: cycles, Instructions: insts}
	for c, v := range comps {
		s.Comp[c] = v
	}
	return s
}

func TestStackCPIViews(t *testing.T) {
	s := mkStack(StageDispatch, 200, 100, map[Component]float64{
		CompBase: 100, CompDCache: 60, CompBpred: 40,
	})
	if got := s.TotalCPI(); got != 2 {
		t.Fatalf("TotalCPI = %v, want 2", got)
	}
	if got := s.IPC(); got != 0.5 {
		t.Fatalf("IPC = %v, want 0.5", got)
	}
	if got := s.CPI(CompDCache); got != 0.6 {
		t.Fatalf("CPI(DCache) = %v, want 0.6", got)
	}
	if got := s.Normalized(CompBase); got != 0.5 {
		t.Fatalf("Normalized(Base) = %v, want 0.5", got)
	}
	// IPC stack: base = achieved IPC, height = width.
	if got := s.IPCStack(CompBase); got != 2 {
		t.Fatalf("IPCStack(Base) = %v, want 2 (0.5 x 4)", got)
	}
	var h float64
	for c := Component(0); c < NumComponents; c++ {
		h += s.IPCStack(c)
	}
	if math.Abs(h-4) > 1e-12 {
		t.Fatalf("IPC stack height = %v, want 4", h)
	}
}

func TestStackZeroDivisionsSafe(t *testing.T) {
	var s Stack
	if s.TotalCPI() != 0 || s.IPC() != 0 || s.CPI(CompBase) != 0 || s.Normalized(CompBase) != 0 {
		t.Fatal("zero stack should return zeros, not NaN")
	}
}

func TestCPIsArray(t *testing.T) {
	s := mkStack(StageIssue, 100, 50, map[Component]float64{CompBase: 50, CompALULat: 50})
	arr := s.CPIs()
	if arr[CompBase] != 1 || arr[CompALULat] != 1 {
		t.Fatalf("CPIs = %v", arr)
	}
}

func TestComponentRangeAndBounds(t *testing.T) {
	ms := &MultiStack{}
	ms.Stacks[StageDispatch] = mkStack(StageDispatch, 100, 100, map[Component]float64{CompBpred: 50})
	ms.Stacks[StageIssue] = mkStack(StageIssue, 100, 100, map[Component]float64{CompBpred: 30})
	ms.Stacks[StageCommit] = mkStack(StageCommit, 100, 100, map[Component]float64{CompBpred: 10})
	lo, hi := ms.ComponentRange(CompBpred)
	if lo != 0.1 || hi != 0.5 {
		t.Fatalf("range = [%v,%v], want [0.1,0.5]", lo, hi)
	}
	if in, err := ms.Bounds(CompBpred, 0.3); !in || err != 0 {
		t.Fatalf("0.3 should be inside, got (%v,%v)", in, err)
	}
	if in, err := ms.Bounds(CompBpred, 0.05); in || math.Abs(err+0.05) > 1e-12 {
		t.Fatalf("0.05 should be below by 0.05, got (%v,%v)", in, err)
	}
	if in, err := ms.Bounds(CompBpred, 0.6); in || math.Abs(err-0.1) > 1e-12 {
		t.Fatalf("0.6 should be above by 0.1, got (%v,%v)", in, err)
	}
}

func TestAverageStacks(t *testing.T) {
	a := mkStack(StageCommit, 100, 80, map[Component]float64{CompBase: 60, CompDCache: 40})
	b := mkStack(StageCommit, 200, 100, map[Component]float64{CompBase: 120, CompDCache: 80})
	avg := AverageStacks([]Stack{a, b})
	if avg.Comp[CompBase] != 90 || avg.Comp[CompDCache] != 60 {
		t.Fatalf("avg comps = %v/%v", avg.Comp[CompBase], avg.Comp[CompDCache])
	}
	if avg.Cycles != 150 || avg.Instructions != 90 {
		t.Fatalf("avg cycles/insts = %d/%d", avg.Cycles, avg.Instructions)
	}
	if AverageStacks(nil).Cycles != 0 {
		t.Fatal("empty average should be zero")
	}
}

// TestAverageStacksSummationOrder: the averages add the cores' stacks in
// slice order. The inputs make float addition order-visible (1e16+1 rounds
// back to 1e16), so any other order, such as a map's, moves the result;
// repeating the call in one process catches an order that varies per call.
func TestAverageStacksSummationOrder(t *testing.T) {
	vals := []float64{1e16, 1, -1e16, 3}
	want := (((vals[0] + vals[1]) + vals[2]) + vals[3]) / float64(len(vals))
	stacks := make([]Stack, len(vals))
	fstacks := make([]FLOPSStack, len(vals))
	for i, v := range vals {
		for c := range stacks[i].Comp {
			stacks[i].Comp[c] = v
		}
		for c := range fstacks[i].Comp {
			fstacks[i].Comp[c] = v
		}
	}
	for rep := 0; rep < 50; rep++ {
		avg, favg := AverageStacks(stacks), AverageFLOPSStacks(fstacks)
		for c, got := range avg.Comp {
			if got != want {
				t.Fatalf("rep %d: AverageStacks Comp[%v] = %v, want the in-order %v", rep, Component(c), got, want)
			}
		}
		for c, got := range favg.Comp {
			if got != want {
				t.Fatalf("rep %d: AverageFLOPSStacks Comp[%v] = %v, want the in-order %v", rep, FLOPSComponent(c), got, want)
			}
		}
	}
}

func TestTopComponents(t *testing.T) {
	s := mkStack(StageCommit, 100, 100, map[Component]float64{
		CompBase: 25, CompDCache: 50, CompBpred: 20, CompICache: 5,
	})
	top := s.TopComponents()
	if top[0] != CompDCache || top[1] != CompBpred {
		t.Fatalf("top = %v", top[:3])
	}
	for _, c := range top {
		if c == CompBase {
			t.Fatal("TopComponents must exclude the base component")
		}
	}
}

func TestStackString(t *testing.T) {
	s := mkStack(StageIssue, 100, 100, map[Component]float64{CompBase: 25, CompDCache: 75})
	str := s.String()
	if !strings.Contains(str, "issue") || !strings.Contains(str, "Dcache") {
		t.Fatalf("String = %q", str)
	}
}

func TestStageAndComponentNames(t *testing.T) {
	if StageDispatch.String() != "dispatch" || StageIssue.String() != "issue" ||
		StageCommit.String() != "commit" {
		t.Fatal("stage names wrong")
	}
	if Stage(9).String() != "stage?" {
		t.Fatal("out-of-range stage should render as stage?")
	}
	for c := Component(0); c < NumComponents; c++ {
		if c.String() == "Comp?" {
			t.Errorf("component %d has no name", c)
		}
	}
	for c := FLOPSComponent(0); c < NumFLOPSComponents; c++ {
		if c.String() == "FComp?" {
			t.Errorf("FLOPS component %d has no name", c)
		}
	}
	if len(Components()) != int(NumComponents) || len(FLOPSComponents()) != int(NumFLOPSComponents) {
		t.Fatal("component listings incomplete")
	}
	if len(Stages()) != int(NumStages) {
		t.Fatal("stage listing incomplete")
	}
}

func TestFECauseComponentMapping(t *testing.T) {
	if FEICache.Component() != CompICache || FEBpred.Component() != CompBpred ||
		FEMicrocode.Component() != CompMicrocode || FEUnsched.Component() != CompUnsched ||
		FEDrained.Component() != CompOther || FENone.Component() != CompOther {
		t.Fatal("FECause component mapping wrong")
	}
}

func TestProdClassComponentMapping(t *testing.T) {
	if ProdDCache.Component() != CompDCache || ProdLongLat.Component() != CompALULat ||
		ProdDepend.Component() != CompDepend || ProdNone.Component() != CompOther {
		t.Fatal("ProdClass component mapping wrong")
	}
}

func TestFetchAccountantCauses(t *testing.T) {
	a := NewFetchAccountant(4)
	// Full-width fetch: all base.
	for i := 0; i < 4; i++ {
		a.Cycle(&CycleSample{FetchN: 4, CommitN: 4})
	}
	// I-cache stalled fetch.
	for i := 0; i < 4; i++ {
		a.Cycle(&CycleSample{FetchN: 0, FetchCause: FEICache, CommitN: 4})
	}
	// Back-pressure from a full queue with a D-cache-blocked ROB head.
	for i := 0; i < 2; i++ {
		a.Cycle(&CycleSample{FetchN: 0, FetchQueueFull: true, ROBFull: true,
			ROBHeadClass: ProdDCache, CommitN: 0})
	}
	s := a.Finalize()
	if s.Stage != StageFetch || s.Stage.String() != "fetch" {
		t.Fatalf("stage = %v", s.Stage)
	}
	if s.Comp[CompBase] != 4 || s.Comp[CompICache] != 4 || s.Comp[CompDCache] != 2 {
		t.Fatalf("comps = base %v icache %v dcache %v", s.Comp[CompBase], s.Comp[CompICache], s.Comp[CompDCache])
	}
	if s.Cycles != 10 {
		t.Fatalf("cycles = %d", s.Cycles)
	}
	if got := s.Sum(); got != 10 {
		t.Fatalf("sum = %v, want cycles", got)
	}
}

func TestFetchAccountantWrongPathAndUnsched(t *testing.T) {
	a := NewFetchAccountant(2)
	a.Cycle(&CycleSample{FetchN: 0, WrongPath: true})
	a.Cycle(&CycleSample{FetchN: 0, Unsched: true})
	s := a.Finalize()
	if s.Comp[CompBpred] != 1 || s.Comp[CompUnsched] != 1 {
		t.Fatalf("comps = %v/%v", s.Comp[CompBpred], s.Comp[CompUnsched])
	}
}
