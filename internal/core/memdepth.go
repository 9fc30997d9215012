package core

import (
	"fmt"
	"strings"

	"perfstacks/internal/invariant"
)

// MemLevel buckets a D-cache stall by the level that served the miss — the
// paper's suggested refinement ("an actual implementation could have more
// components, e.g., differentiating between the different cache levels and
// TLBs", §III-A).
type MemLevel int

const (
	// MemL1 is latency from L1-hitting accesses (including a DTLB walk on
	// an otherwise-hitting access at depth 0; rare because a TLB miss
	// normally forces depth >= 1).
	MemL1 MemLevel = iota
	// MemL2 is misses served by the L2.
	MemL2
	// MemL3 is misses served by the shared L3 slice.
	MemL3
	// MemDRAM is misses served by main memory.
	MemDRAM

	// NumMemLevels is the number of breakdown buckets.
	NumMemLevels
)

var memLevelNames = [NumMemLevels]string{"L1", "L2", "L3", "DRAM"}

// String names the level.
func (l MemLevel) String() string {
	if l >= 0 && l < NumMemLevels {
		return memLevelNames[l]
	}
	return "mem?"
}

// levelOfDepth maps a hierarchy miss depth onto a bucket.
func levelOfDepth(depth uint8) MemLevel {
	switch {
	case depth == 0:
		return MemL1
	case depth == 1:
		return MemL2
	case depth == 2:
		return MemL3
	default:
		return MemDRAM
	}
}

// MemDepthStack splits the D-cache stall time of two stacks by serving
// level. Commit uses the ROB head's miss depth; issue uses the first
// non-ready producer's. Each stack's buckets sum to the corresponding
// stack's D-cache component.
type MemDepthStack struct {
	// Commit[l] is commit-stage D-cache stall cycles served by level l.
	Commit [NumMemLevels]float64
	// Issue[l] is issue-stage D-cache stall cycles served by level l.
	Issue [NumMemLevels]float64
	// Cycles is the total cycles observed.
	Cycles int64
}

// CommitTotal returns the summed commit-stage D-cache stall cycles.
func (m MemDepthStack) CommitTotal() float64 {
	var t float64
	for _, v := range m.Commit {
		t += v
	}
	return t
}

// IssueTotal returns the summed issue-stage D-cache stall cycles.
func (m MemDepthStack) IssueTotal() float64 {
	var t float64
	for _, v := range m.Issue {
		t += v
	}
	return t
}

// String renders normalized shares.
func (m MemDepthStack) String() string {
	var b strings.Builder
	b.WriteString("Dcache breakdown by serving level (commit / issue):")
	ct, it := m.CommitTotal(), m.IssueTotal()
	for l := MemLevel(0); l < NumMemLevels; l++ {
		var cf, inf float64
		if ct > 0 {
			cf = m.Commit[l] / ct
		}
		if it > 0 {
			inf = m.Issue[l] / it
		}
		fmt.Fprintf(&b, " %s=%.0f%%/%.0f%%", l, 100*cf, 100*inf)
	}
	return b.String()
}

// MemDepthAccountant measures the per-level D-cache breakdown. It mirrors
// the commit- and issue-stage Table II D-cache attributions, subdividing
// them by the depth the blamed load's miss was served from. Attach it
// alongside a MultiStageAccountant; the two agree on the total D-cache
// component by construction (same per-cycle stall fractions, same
// classification priority).
type MemDepthAccountant struct {
	width float64
	// carry mirrors the width-carryover state of the main accountant so the
	// stall fractions match exactly.
	commitCarry float64
	issueCarry  float64
	stack       MemDepthStack
	dbg         debugTick
}

// NewMemDepthAccountant builds an accountant for normalization width w.
func NewMemDepthAccountant(w int) *MemDepthAccountant {
	if w < 1 {
		w = 1
	}
	return &MemDepthAccountant{width: float64(w)}
}

// Cycle consumes one sample.
func (a *MemDepthAccountant) Cycle(s *CycleSample) {
	if invariant.Enabled {
		debugCheckSample(s)
		if a.dbg.due(a.stack.Cycles) {
			a.debugConserve()
		}
	}
	if s.Repeat > 1 {
		a.cycleIdle(s)
		return
	}
	a.stack.Cycles++
	if s.Unsched {
		return
	}

	// Commit stage: stall fraction when the head is a missing load.
	stall, carry := stallFraction(float64(s.CommitN), a.commitCarry, a.width)
	a.commitCarry = carry
	if stall > 0 && !s.ROBEmpty && s.ROBHeadNotDone && s.ROBHeadClass == ProdDCache {
		a.stack.Commit[levelOfDepth(s.ROBHeadMissDepth)] += stall
	}

	// Issue stage: stall fraction when the first non-ready producer is a
	// missing load.
	stall, carry = stallFraction(float64(s.IssueN), a.issueCarry, a.width)
	a.issueCarry = carry
	if stall > 0 && !s.RSEmpty && s.FirstNonReadyClass == ProdDCache {
		a.stack.Issue[levelOfDepth(s.FirstNonReadyMissDepth)] += stall
	}
}

// cycleIdle accounts an idle-window sample: both stages see zero throughput
// for s.Repeat cycles, the blamed load (if any) is constant, and after the
// width carryover drains every cycle contributes exactly one stall cycle.
func (a *MemDepthAccountant) cycleIdle(s *CycleSample) {
	r := s.Repeat
	a.stack.Cycles += r
	if s.Unsched {
		return
	}

	commitDC := !s.ROBEmpty && s.ROBHeadNotDone && s.ROBHeadClass == ProdDCache
	rr := r
	for rr > 0 && a.commitCarry > 0 {
		stall, carry := stallFraction(0, a.commitCarry, a.width)
		a.commitCarry = carry
		if stall > 0 && commitDC {
			a.stack.Commit[levelOfDepth(s.ROBHeadMissDepth)] += stall
		}
		rr--
	}
	if rr > 0 && commitDC {
		addWholeCycles(&a.stack.Commit[levelOfDepth(s.ROBHeadMissDepth)], rr)
	}

	issueDC := !s.RSEmpty && s.FirstNonReadyClass == ProdDCache
	rr = r
	for rr > 0 && a.issueCarry > 0 {
		stall, carry := stallFraction(0, a.issueCarry, a.width)
		a.issueCarry = carry
		if stall > 0 && issueDC {
			a.stack.Issue[levelOfDepth(s.FirstNonReadyMissDepth)] += stall
		}
		rr--
	}
	if rr > 0 && issueDC {
		addWholeCycles(&a.stack.Issue[levelOfDepth(s.FirstNonReadyMissDepth)], rr)
	}
}

// stallFraction applies the §III-A width/carry rule and returns the stall
// remainder plus the next carry.
func stallFraction(n, carry, w float64) (stall, nextCarry float64) {
	used := n + carry
	if used >= w {
		return 0, used - w
	}
	return 1 - used/w, 0
}

// Finalize returns the measured breakdown.
func (a *MemDepthAccountant) Finalize() MemDepthStack {
	if invariant.Enabled {
		a.debugConserve()
	}
	return a.stack
}
