package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentileLadder lists the percentiles the benchmark may report, highest
// first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minTail is the number of samples a reported percentile must have beyond
// it: fewer, and the figure is one or two outliers rather than a tail.
const minTail = 10

// supportedPercentile returns the highest percentile of the ladder with at
// least minTail of n samples beyond it; ok is false when n is too small for
// even the median.
func supportedPercentile(n int) (p float64, ok bool) {
	for _, p := range percentileLadder {
		// The epsilon absorbs float error in 100-p (e.g. 100-99.9).
		beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
		if beyond >= minTail {
			return p, true
		}
	}
	return 0, false
}

// selfTime is a span's duration minus the part its traced children cover,
// floored at zero (sampled child estimates can overshoot a short parent).
func selfTime(total float64, children ...float64) float64 {
	for _, c := range children {
		total -= c
	}
	if total < 0 {
		return 0
	}
	return total
}

// latencies collects one request class's latencies and, where the class
// repeats a fixed set of requests, which of them each sample was.
type latencies struct {
	name  string
	ds    []time.Duration
	shape []int
}

func (l *latencies) add(d time.Duration) { l.ds = append(l.ds, d) }

// addShape records a sample of the request numbered shape.
func (l *latencies) addShape(shape int, d time.Duration) {
	l.ds = append(l.ds, d)
	l.shape = append(l.shape, shape)
}

// floors returns, in seconds and ascending, the fastest sample of each
// shape: the request's latency in the quietest moment the run gave it.
func (l *latencies) floors() []float64 {
	best := map[int]time.Duration{}
	for i, d := range l.ds {
		if b, ok := best[l.shape[i]]; !ok || d < b {
			best[l.shape[i]] = d
		}
	}
	out := make([]float64, 0, len(best))
	for _, d := range best {
		out = append(out, d.Seconds())
	}
	sort.Float64s(out)
	return out
}

// in returns the samples converted to the given unit.
func (l *latencies) in(unit time.Duration) []float64 {
	out := make([]float64, len(l.ds))
	for i, d := range l.ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// describe renders the class's median and its highest supported percentile
// with the sample count, in the given unit.
func (l *latencies) describe(unit time.Duration, unitName string) string {
	xs := l.in(unit)
	p, ok := supportedPercentile(len(xs))
	if !ok {
		return fmt.Sprintf("%-6s n=%d  p50 %.4g %s (too few samples for a tail percentile)",
			l.name, len(xs), median(xs), unitName)
	}
	return fmt.Sprintf("%-6s n=%d  p50 %.4g %s  p%g %.4g %s",
		l.name, len(xs), median(xs), unitName, p, quantile(xs, p/100), unitName)
}
