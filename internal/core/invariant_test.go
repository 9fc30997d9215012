//go:build simdebug

package core

import (
	"strings"
	"testing"

	"perfstacks/internal/invariant"
)

// expectViolation runs fn and requires it to panic with an
// *invariant.Violation whose message contains want.
func expectViolation(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected an invariant violation mentioning %q; code ran clean", want)
		}
		v, ok := r.(*invariant.Violation)
		if !ok {
			panic(r)
		}
		if !strings.Contains(v.Msg, want) {
			t.Fatalf("violation %q does not mention %q", v.Msg, want)
		}
	}()
	fn()
}

// TestConservationCatchesCorruptedAccumulator is the designed negative test:
// silently corrupting a stack accumulator from outside its accountant must
// trip the conservation assertion at the next checkpoint.
func TestConservationCatchesCorruptedAccumulator(t *testing.T) {
	m := NewMultiStageAccountant(Options{Width: 4})
	for i := 0; i < 100; i++ {
		m.Cycle(&CycleSample{DispatchN: 4, IssueN: 4, CommitN: 4})
	}
	// An internal test can write the accumulator directly to stage the
	// corruption.
	m.stages[StageDispatch].comp[CompBase] += 5
	expectViolation(t, "dispatch stack", func() { m.Finalize(0) })
}

func TestConservationCatchesCorruptionUnderSpeculativeScheme(t *testing.T) {
	m := NewMultiStageAccountant(Options{Width: 4, Scheme: WrongPathSpeculative})
	for i := 0; i < 50; i++ {
		m.Cycle(&CycleSample{DispatchN: 2, IssueN: 2, CommitN: 2,
			DispatchYoungest: uint64(2 * (i + 1)), IssueYoungest: uint64(2 * (i + 1))})
	}
	// Corrupt the in-flight speculative buffer rather than the stage
	// accumulator: conservation must hold across pending+committed too.
	m.spec.committed[StageIssue][CompBpred] += 3
	expectViolation(t, "issue stack", func() { m.Finalize(0) })
}

func TestConservationCatchesCorruptedFLOPSStack(t *testing.T) {
	a := NewFLOPSAccountant(2, 8)
	for i := 0; i < 10; i++ {
		a.Cycle(&CycleSample{VFPIssued: 1, VFPActiveLanes: 8, VFPFlops: 16, VFPInRS: true})
	}
	a.stack.Comp[FMask] += 1
	expectViolation(t, "FLOPS stack", func() { a.Finalize() })
}

func TestConservationCatchesCorruptedFetchStack(t *testing.T) {
	a := NewFetchAccountant(4)
	for i := 0; i < 10; i++ {
		a.Cycle(&CycleSample{FetchN: 4, CommitN: 4})
	}
	a.acct.comp[CompICache] -= 2
	expectViolation(t, "fetch stack", func() { a.Finalize() })
}

// TestSampleContractViolationsFire checks the per-sample well-formedness
// assertions on the batched-Repeat contract.
func TestSampleContractViolationsFire(t *testing.T) {
	m := NewMultiStageAccountant(Options{Width: 4})
	expectViolation(t, "nonzero throughput", func() {
		m.Cycle(&CycleSample{Repeat: 8, CommitN: 1})
	})
	expectViolation(t, "commit/squash events", func() {
		m.Cycle(&CycleSample{Repeat: 8, HasCommit: true})
	})
	expectViolation(t, "negative throughput", func() {
		m.Cycle(&CycleSample{DispatchN: -1})
	})
}

// TestVFPBoundViolationsFire checks the Table III preconditions.
func TestVFPBoundViolationsFire(t *testing.T) {
	a := NewFLOPSAccountant(2, 8)
	expectViolation(t, "exceeds k", func() {
		a.Cycle(&CycleSample{VFPIssued: 3})
	})
	expectViolation(t, "exceeds n*v", func() {
		a.Cycle(&CycleSample{VFPIssued: 1, VFPActiveLanes: 9})
	})
	expectViolation(t, "exceeds 2*lanes", func() {
		a.Cycle(&CycleSample{VFPIssued: 1, VFPActiveLanes: 8, VFPFlops: 17})
	})
}

// TestCleanRunPassesAllChecks drives every accountant through a mixed
// workload (including batched idle windows) and expects no violations.
func TestCleanRunPassesAllChecks(t *testing.T) {
	m := NewMultiStageAccountant(Options{Width: 4})
	f := NewFetchAccountant(4)
	fl := NewFLOPSAccountant(2, 8)
	md := NewMemDepthAccountant(4)
	st := NewStructuralAccountant(4)
	for i := 0; i < 3*debugCheckInterval/10; i++ {
		busy := CycleSample{FetchN: 4, DispatchN: 4, IssueN: 4, CommitN: 4,
			VFPIssued: 1, VFPActiveLanes: 6, VFPFlops: 12, VFPInRS: true}
		idle := CycleSample{Repeat: 9, ROBHeadNotDone: true, ROBHeadClass: ProdDCache,
			ROBHeadMissDepth: 3, FirstNonReadyClass: ProdDCache, FirstNonReadyMissDepth: 3}
		for _, s := range []*CycleSample{&busy, &idle} {
			m.Cycle(s)
			f.Cycle(s)
			fl.Cycle(s)
			md.Cycle(s)
			st.Cycle(s)
		}
	}
	m.Finalize(0)
	f.Finalize()
	fl.Finalize()
	md.Finalize()
	st.Finalize()
}
