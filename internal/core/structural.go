package core

import (
	"fmt"

	"perfstacks/internal/invariant"
)

// StructuralCause buckets the issue-stage structural stalls — the stalls the
// paper notes "can also be separately measured in the issue CPI stack" and
// that no other stage can observe: functional-unit/port conflicts and
// (predicted) memory address conflicts between loads and stores.
type StructuralCause int

const (
	// StructPort: ready uops existed but their issue ports were taken.
	StructPort StructuralCause = iota
	// StructMemOrder: a ready load waited behind an older in-flight store
	// to the same line.
	StructMemOrder
	// StructOther: structural stall with no recorded cause (e.g. issue
	// width exhausted before the blocked entry was examined).
	StructOther

	// NumStructuralCauses is the number of buckets.
	NumStructuralCauses
)

var structuralNames = [NumStructuralCauses]string{"port", "mem-order", "other"}

// String names the cause.
func (c StructuralCause) String() string {
	if c >= 0 && c < NumStructuralCauses {
		return structuralNames[c]
	}
	return "struct?"
}

// StructuralStack subdivides the issue stack's Other component by
// structural cause. The buckets sum to the portion of the issue-stage Other
// component that came from ready-but-blocked cycles.
type StructuralStack struct {
	// Cause[c] is issue-stage stall cycles attributed to cause c.
	Cause [NumStructuralCauses]float64
	// Cycles is the total cycles observed.
	Cycles int64
}

// Total sums the buckets.
func (s StructuralStack) Total() float64 {
	var t float64
	for _, v := range s.Cause {
		t += v
	}
	return t
}

// String renders the breakdown.
func (s StructuralStack) String() string {
	t := s.Total()
	if t == 0 {
		return "issue structural stalls: none"
	}
	out := "issue structural stalls:"
	for c := StructuralCause(0); c < NumStructuralCauses; c++ {
		out += fmt.Sprintf(" %s=%.0f%%", c, 100*s.Cause[c]/t)
	}
	return out
}

// StructuralAccountant subdivides issue-stage structural stalls. Attach it
// alongside a MultiStageAccountant; its Total matches the part of the issue
// Other component produced by ready-but-blocked uops.
type StructuralAccountant struct {
	width float64
	carry float64
	stack StructuralStack
	dbg   debugTick
}

// NewStructuralAccountant builds an accountant for normalization width w.
func NewStructuralAccountant(w int) *StructuralAccountant {
	if w < 1 {
		w = 1
	}
	return &StructuralAccountant{width: float64(w)}
}

// Cycle consumes one sample.
func (a *StructuralAccountant) Cycle(s *CycleSample) {
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
	stall, carry := stallFraction(float64(s.IssueN), a.carry, a.width)
	a.carry = carry
	if stall <= 0 || s.RSEmpty || s.FirstNonReadyClass != ProdNone {
		// Either no stall, or the stall was attributed to a producer (not
		// structural) by the main accountant.
		return
	}
	a.stack.Cause[a.bucket(s)] += stall
}

// bucket classifies a structural stall cycle by its recorded cause.
func (a *StructuralAccountant) bucket(s *CycleSample) StructuralCause {
	switch {
	case s.IssueBlockedMemOrder:
		return StructMemOrder
	case s.IssueBlockedPort:
		return StructPort
	default:
		return StructOther
	}
}

// cycleIdle accounts an idle-window sample: zero issue throughput for
// s.Repeat cycles with a constant structural-stall classification.
func (a *StructuralAccountant) cycleIdle(s *CycleSample) {
	r := s.Repeat
	a.stack.Cycles += r
	if s.Unsched {
		return
	}
	structural := !s.RSEmpty && s.FirstNonReadyClass == ProdNone
	for r > 0 && a.carry > 0 {
		stall, carry := stallFraction(0, a.carry, a.width)
		a.carry = carry
		if stall > 0 && structural {
			a.stack.Cause[a.bucket(s)] += stall
		}
		r--
	}
	if r > 0 && structural {
		addWholeCycles(&a.stack.Cause[a.bucket(s)], r)
	}
}

// Finalize returns the measured breakdown.
func (a *StructuralAccountant) Finalize() StructuralStack {
	if invariant.Enabled {
		a.debugConserve()
	}
	return a.stack
}
