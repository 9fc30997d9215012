package core

import (
	"math"
	"math/rand"
	"testing"
)

// perCycle is the reference addWholeCycles must match bit for bit.
func perCycle(x float64, n int64) float64 {
	for ; n > 0; n-- {
		x++
	}
	return x
}

// TestAddWholeCyclesMatchesPerCycle: batched adds are bit-identical to the
// per-cycle loop from fractional, integer, tiny, negative and
// just-below-a-power-of-two starts, for n up to 1e6.
func TestAddWholeCyclesMatchesPerCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(x float64, n int64) {
		t.Helper()
		got := x
		addWholeCycles(&got, n)
		if want := perCycle(x, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("addWholeCycles(%v, %d) = %v, per-cycle %v", x, n, got, want)
		}
	}
	ns := []int64{0, 1, 2, 3, 7, 100, 4095, 4096, 4097, 1e6}
	starts := []float64{0, 1, 0.5, 0.1, 1e-300, 5e-324, 2.75, 1e6 + 1.0/3, 1 << 52, 1<<53 - 1,
		1<<53 - 0.5e6, 1 << 53, 1<<53 + 2, -3.5, -1e6 + 0.25, math.NaN(), math.Inf(1)}
	for k := 0; k <= 60; k++ {
		p := math.Ldexp(1, k)
		starts = append(starts, p, math.Nextafter(p, 0), p-0.5, p-1, p-1.5, p-1+0x1p-20)
	}
	for i := 0; i < 100; i++ {
		starts = append(starts,
			rng.Float64()*1e4,                                // fractional
			math.Ldexp(rng.Float64(), rng.Intn(60)),          // any binade
			float64(rng.Intn(1<<20))+rng.Float64()*0x1p-10,   // small fraction
			math.Nextafter(math.Ldexp(1, 1+rng.Intn(52)), 0), // just below 2^k
		)
	}
	for _, x := range starts {
		for _, n := range ns {
			check(x, n)
		}
		check(x, 1+rng.Int63n(1e6))
	}
}
