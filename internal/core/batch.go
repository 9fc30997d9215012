package core

import "math"

// addWholeCycles adds n whole stall cycles to *x, producing a result
// bit-identical to n repeated "+= 1" operations, in O(log n) adds.
//
// Inside one binade [2^k, 2^(k+1)) below 2^53 the ulp is at most 1, so
// every "+1" that keeps the sum below the binade's edge is exact, and so is
// their sum. Only the step that reaches or crosses the edge may round, and
// it rounds the exact value x+m the same whether it is taken alone or as
// part of one add of m. So each binade costs one add, up to and including
// the step that leaves it; an integer-valued x takes all n steps in one.
// Past 2^53, or for a negative or NaN x, the per-cycle steps are replayed.
//
// This is the workhorse of batched idle-window accounting: a skipped stall
// window contributes exactly 1.0 to a single component per cycle (the stall
// remainder 1-f with f = 0), so equivalence with the unbatched path reduces
// to the repeated-add identity this helper guarantees.
func addWholeCycles(x *float64, n int64) {
	v := *x
	for n > 0 {
		if v == math.Trunc(v) && v+float64(n) < 1<<53 {
			v += float64(n)
			break
		}
		if !(v > 0 && v < 1<<53) {
			for ; n > 0; n-- {
				v++
			}
			break
		}
		// v is in [2^(e-1), 2^e), edge-v is exact (Sterbenz: edge/2 <= v
		// <= edge), and m steps reach or cross the edge.
		_, e := math.Frexp(v)
		m := int64(math.Ceil(math.Ldexp(1, e) - v))
		if m >= n {
			v += float64(n)
			break
		}
		v += float64(m)
		n -= m
	}
	*x = v
}
