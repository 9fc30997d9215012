package core

import "perfstacks/internal/invariant"

// This file holds the simdebug runtime checks for the accountants. Every
// entry point is reached only through an `if invariant.Enabled` guard, so in
// a normal build (invariant.Enabled == false) none of this code runs and the
// guards compile away entirely.
//
// Two kinds of checks are wired in:
//
//   - per-sample well-formedness, validating the pipeline→accountant contract
//     on every CycleSample (non-negative counts; batched Repeat samples carry
//     no throughput or events);
//   - periodic conservation, re-proving Σ components = cycles for every
//     stack — including the speculative scheme's in-flight buffers — every
//     debugCheckInterval cycles and again at Finalize.

// debugCheckInterval is the conservation-check cadence in cycles.
const debugCheckInterval = 8192

// debugTick schedules periodic checks by cycle count. Batched idle windows
// can jump the cycle counter past any fixed modulus, so a moving threshold
// is used instead of `cycles % interval`.
type debugTick struct{ next int64 }

// due reports whether a periodic check should run at the given cycle count
// and, if so, schedules the next one.
func (d *debugTick) due(cycles int64) bool {
	if cycles < d.next {
		return false
	}
	d.next = cycles + debugCheckInterval
	return true
}

// sumFloats totals a component slice.
func sumFloats(xs []float64) float64 {
	var t float64
	for _, v := range xs {
		t += v
	}
	return t
}

// debugCheckSample validates the pipeline→accountant sample contract. It
// runs on every sample, so each check boxes its message arguments only when
// it fails.
func debugCheckSample(s *CycleSample) {
	if s.Repeat < 0 {
		invariant.Failf("CycleSample.Repeat = %d at cycle %d", s.Repeat, s.Cycle)
	}
	if s.FetchN < 0 || s.DispatchN < 0 || s.DispatchWrongN < 0 ||
		s.IssueN < 0 || s.IssueWrongN < 0 || s.CommitN < 0 {
		invariant.Failf("negative throughput count in sample at cycle %d", s.Cycle)
	}
	if s.VFPIssued < 0 || s.VFPActiveLanes < 0 || s.VFPFlops < 0 || s.VUNonVFP < 0 {
		invariant.Failf("negative VFP count in sample at cycle %d", s.Cycle)
	}
	if s.Repeat > 1 {
		// A batched sample stands for Repeat provably idle cycles: the
		// accountants multiply one cycle's weights by Repeat, which is only
		// sound when nothing moved and no events fired (see CycleSample.Repeat).
		if s.FetchN != 0 || s.DispatchN != 0 || s.DispatchWrongN != 0 ||
			s.IssueN != 0 || s.IssueWrongN != 0 || s.CommitN != 0 ||
			s.VFPIssued != 0 || s.VFPActiveLanes != 0 || s.VFPFlops != 0 {
			invariant.Failf("batched sample (Repeat=%d) at cycle %d has nonzero throughput", s.Repeat, s.Cycle)
		}
		if s.HasCommit || s.HasSquash {
			invariant.Failf("batched sample (Repeat=%d) at cycle %d carries commit/squash events", s.Repeat, s.Cycle)
		}
	}
}

// stageWidth returns the normalization width in effect for st.
func (m *MultiStageAccountant) stageWidth(st Stage) float64 {
	if m.opts.UseStageWidths {
		return float64(m.opts.StageWidths[st])
	}
	return float64(m.opts.Width)
}

// debugConserve re-proves conservation for all three stage stacks. Under the
// speculative scheme the dispatch/issue increments live in the per-uop
// buffers until commit/squash/flush, so the in-flight totals are added back
// in: Σ stage.comp + Σ committed + Σ pending = cycles at every instant.
func (m *MultiStageAccountant) debugConserve() {
	cyc := float64(m.cycles)
	for st := Stage(0); st < NumStages; st++ {
		a := &m.stages[st]
		for c := Component(0); c < NumComponents; c++ {
			invariant.NonNegative(a.comp[c], "cpi "+st.String()+" component "+c.String())
		}
		sum := sumFloats(a.comp[:])
		if m.spec != nil {
			sum += m.spec.debugStageTotal(st)
		}
		invariant.Conserved(sum, cyc, "cpi "+st.String()+" stack")
		invariant.NonNegative(a.carry, "cpi "+st.String()+" carry")
		// When every observed n fits the stage width the carry is bounded by
		// the width; a wider upstream stage (n > w under min-width
		// normalization) legitimately accumulates more.
		if w := m.stageWidth(st); a.dbgMaxN <= w {
			invariant.AtMost(a.carry, w, "cpi "+st.String()+" carry (all n <= width)")
		}
	}
}

// debugStageTotal sums the speculative buffers' increments for one stage:
// everything folded at commit/squash but not yet flushed, plus everything
// still attributed to in-flight uops.
func (sp *specState) debugStageTotal(st Stage) float64 {
	t := sumFloats(sp.committed[st][:])
	for _, r := range sp.order {
		t += sumFloats(sp.comps[r.slot][st][:])
	}
	return t
}

// debugConserve re-proves conservation for the fetch-stage stack.
func (a *FetchAccountant) debugConserve() {
	invariant.Conserved(sumFloats(a.acct.comp[:]), float64(a.cycles), "fetch stack")
	invariant.NonNegative(a.acct.carry, "fetch carry")
	if a.acct.dbgMaxN <= a.width {
		invariant.AtMost(a.acct.carry, a.width, "fetch carry (all n <= width)")
	}
}

// debugCheckVFP validates the Table III preconditions that make the per-cycle
// FLOPS decomposition sum to exactly 1: at most k uops issue, each uop uses
// at most v lanes, and each lane performs at most 2 operations (an FMA).
func (a *FLOPSAccountant) debugCheckVFP(s *CycleSample) {
	if s.VFPIssued > a.k {
		invariant.Failf("VFPIssued = %d exceeds k = %d at cycle %d", s.VFPIssued, a.k, s.Cycle)
	}
	if s.VFPActiveLanes > s.VFPIssued*a.v {
		invariant.Failf("VFPActiveLanes = %d exceeds n*v = %d at cycle %d", s.VFPActiveLanes, s.VFPIssued*a.v, s.Cycle)
	}
	if s.VFPFlops > 2*s.VFPActiveLanes {
		invariant.Failf("VFPFlops = %d exceeds 2*lanes = %d at cycle %d", s.VFPFlops, 2*s.VFPActiveLanes, s.Cycle)
	}
}

// debugConserve re-proves conservation for the FLOPS stack.
func (a *FLOPSAccountant) debugConserve() {
	for c := FLOPSComponent(0); c < NumFLOPSComponents; c++ {
		invariant.NonNegative(a.stack.Comp[c], "FLOPS component "+c.String())
	}
	invariant.Conserved(a.stack.Sum(), float64(a.stack.Cycles), "FLOPS stack")
}

// debugConserve checks the memory-depth sub-stacks: they decompose only the
// D-cache share of the stall cycles, so each side is bounded by (not equal
// to) the cycle count.
func (a *MemDepthAccountant) debugConserve() {
	cyc := float64(a.stack.Cycles)
	for l := MemLevel(0); l < NumMemLevels; l++ {
		invariant.NonNegative(a.stack.Commit[l], "memdepth commit "+l.String())
		invariant.NonNegative(a.stack.Issue[l], "memdepth issue "+l.String())
	}
	invariant.AtMost(a.stack.CommitTotal(), cyc, "memdepth commit total")
	invariant.AtMost(a.stack.IssueTotal(), cyc, "memdepth issue total")
	invariant.NonNegative(a.commitCarry, "memdepth commit carry")
	invariant.NonNegative(a.issueCarry, "memdepth issue carry")
}

// debugConserve checks the structural sub-stack: it decomposes only the
// ready-but-blocked share of the issue stalls.
func (a *StructuralAccountant) debugConserve() {
	cyc := float64(a.stack.Cycles)
	for c := StructuralCause(0); c < NumStructuralCauses; c++ {
		invariant.NonNegative(a.stack.Cause[c], "structural "+c.String())
	}
	invariant.AtMost(a.stack.Total(), cyc, "structural total")
	invariant.NonNegative(a.carry, "structural carry")
}
