// Package invariant provides runtime assertion helpers for the accounting
// core, compiled in only under the simdebug build tag.
//
// The accountants' central correctness property is conservation: at every
// accounting stage the stack components sum to the elapsed cycles, so a CPI
// stack is a true decomposition of execution time rather than a collection of
// heuristic counters. This package checks that property while a simulation
// runs; the result-digest, enum-name, timing-table and summation-order
// tests pin the rest of DESIGN §8's contracts.
//
// Usage: guard every call with the Enabled constant,
//
//	if invariant.Enabled {
//		invariant.Conserved(sum, cycles, "dispatch stack")
//	}
//
// Enabled is a typed constant (true under -tags simdebug, false otherwise),
// so in a normal build the guarded block is dead code and the compiler
// removes it entirely — the accountants' hot paths carry zero overhead.
//
// This package deliberately depends on nothing but the standard library and
// takes only primitive arguments, so any package (including internal/core)
// can import it without cycles.
package invariant

import (
	"fmt"
	"math"
)

// Violation is the panic value raised by a failed assertion, so tests can
// distinguish invariant failures from unrelated panics.
type Violation struct {
	Msg string
}

// Error implements error for convenience when recovered.
func (v *Violation) Error() string { return "invariant violation: " + v.Msg }

// fail raises a Violation.
func fail(format string, args ...interface{}) {
	panic(&Violation{Msg: fmt.Sprintf(format, args...)})
}

// Assertf panics with a Violation when cond is false.
func Assertf(cond bool, format string, args ...interface{}) {
	if !cond {
		fail(format, args...)
	}
}

// Failf panics with a Violation. Per-cycle checks call it behind their own
// condition, so the arguments are boxed only when the check fails.
func Failf(format string, args ...interface{}) { fail(format, args...) }

// Conserved asserts that sum equals total up to accumulated float rounding:
// |sum - total| <= 1e-9 * (|total| + 1). The accountants add O(total) terms
// of magnitude <= 1, so the true rounding error is orders of magnitude below
// this tolerance while genuine accounting bugs (a lost or double-counted
// cycle) exceed it immediately.
func Conserved(sum, total float64, what string) {
	if math.Abs(sum-total) > 1e-9*(math.Abs(total)+1) {
		fail("%s: components sum to %v, want %v (diff %v)", what, sum, total, sum-total)
	}
}

// NonNegative asserts v >= 0.
func NonNegative(v float64, what string) {
	if v < 0 {
		fail("%s is negative: %v", what, v)
	}
}

// AtMost asserts v <= limit + tolerance (same relative tolerance as
// Conserved). Used for sub-stacks that decompose a fraction of the cycles
// rather than all of them.
func AtMost(v, limit float64, what string) {
	if v > limit+1e-9*(math.Abs(limit)+1) {
		fail("%s is %v, exceeds bound %v", what, v, limit)
	}
}
