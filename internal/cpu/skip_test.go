package cpu

import (
	"slices"
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/trace"
)

// missLoadTrace builds a trace whose loads serialize on cold memory misses,
// producing long provably-idle windows for the skipper to jump over.
func missLoadTrace(n int) []trace.Uop {
	uops := make([]trace.Uop, n)
	for i := range uops {
		u := trace.Uop{Seq: uint64(i), PC: 0x1000, Op: trace.OpLoad,
			Addr: 0x40000000 + uint64(i)*4096, // one page per load: all miss
			Src:  [3]uint64{trace.NoProducer, trace.NoProducer, trace.NoProducer}}
		if i > 0 {
			u.Src[0] = uint64(i - 1) // serialize on the previous load
		}
		uops[i] = u
	}
	return uops
}

func runCoreSkip(t *testing.T, uops []trace.Uop, noSkip bool, warmup uint64) (*collector, Stats) {
	t.Helper()
	col := &collector{}
	c := New(tinyParams(), tinyHier(), bpred.Perfect{}, trace.NewSlice(uops))
	c.SetNoSkip(noSkip)
	c.SetWarmup(warmup)
	c.Attach(col)
	return col, c.Run()
}

// TestSkipEmitsBatchedSamples checks the skipper actually engages on a
// stall-heavy trace and that batched samples respect the CycleSample.Repeat
// contract: all activity counts zero, and the per-sample cycle coverage
// (Repeat, or 1 for ordinary samples) sums to the simulated cycle count.
func TestSkipEmitsBatchedSamples(t *testing.T) {
	col, st := runCoreSkip(t, missLoadTrace(50), false, 0)
	var covered, batched int64
	for i := range col.samples {
		s := &col.samples[i]
		if s.Repeat > 1 {
			batched++
			if s.CommitN != 0 || s.IssueN != 0 || s.IssueWrongN != 0 ||
				s.DispatchN != 0 || s.DispatchWrongN != 0 || s.FetchN != 0 || s.HasSquash {
				t.Fatalf("batched sample at cycle %d records activity: %+v", s.Cycle, *s)
			}
			covered += s.Repeat
		} else {
			covered++
		}
	}
	if batched == 0 {
		t.Fatal("serialized cold misses produced no batched samples; skipper never engaged")
	}
	if covered != st.Cycles {
		t.Fatalf("samples cover %d cycles, simulator ran %d", covered, st.Cycles)
	}
}

// TestNoSkipForcesPerCycle checks the debugging escape hatch: with skipping
// disabled every emitted sample stands for exactly one cycle.
func TestNoSkipForcesPerCycle(t *testing.T) {
	col, st := runCoreSkip(t, missLoadTrace(30), true, 0)
	for i := range col.samples {
		if col.samples[i].Repeat > 1 {
			t.Fatalf("NoSkip run emitted a batched sample at cycle %d", col.samples[i].Cycle)
		}
	}
	if int64(len(col.samples)) != st.Cycles {
		t.Fatalf("NoSkip run emitted %d samples for %d cycles", len(col.samples), st.Cycles)
	}
}

// TestSkipMatchesNoSkipExactly is the core-level equivalence check: identical
// Stats and identical per-sample activity totals with skipping on vs off.
func TestSkipMatchesNoSkipExactly(t *testing.T) {
	sum := func(col *collector) (commits, issues, fetches int) {
		for i := range col.samples {
			commits += col.samples[i].CommitN
			issues += col.samples[i].IssueN
			fetches += col.samples[i].FetchN
		}
		return
	}
	colOff, stOff := runCoreSkip(t, missLoadTrace(50), true, 0)
	colOn, stOn := runCoreSkip(t, missLoadTrace(50), false, 0)
	if stOff != stOn {
		t.Fatalf("stats diverge:\n  off: %+v\n  on:  %+v", stOff, stOn)
	}
	c0, i0, f0 := sum(colOff)
	c1, i1, f1 := sum(colOn)
	if c0 != c1 || i0 != i1 || f0 != f1 {
		t.Fatalf("activity totals diverge: off %d/%d/%d vs on %d/%d/%d", c0, i0, f0, c1, i1, f1)
	}
}

// TestSkipReenabledMidRun: turning skipping on mid-run, with misses in
// flight that issued while it was off, must not let a jump overshoot their
// completions. Independent loads miss to memory, so an idle window waits on
// the ROB head's completion alone and no consumer's promotion stands in for
// it. Runs that turn skipping on with misses in flight commit in the same
// cycles as a run that never skips.
func TestSkipReenabledMidRun(t *testing.T) {
	uops := missLoadTrace(40)
	for i := range uops {
		uops[i].Src[0] = trace.NoProducer
	}
	// commits lists the cycle of every commit.
	run := func(skipFrom int) (commits []int64, st Stats) {
		col := &collector{}
		c := New(tinyParams(), tinyHier(), bpred.Perfect{}, trace.NewSlice(uops))
		c.Attach(col)
		c.SetNoSkip(true)
		for i := 0; c.Step(); i++ {
			if i == skipFrom {
				c.SetNoSkip(false)
			}
		}
		for _, s := range col.samples {
			for n := 0; n < s.CommitN; n++ {
				commits = append(commits, s.Cycle)
			}
		}
		return commits, c.Stats
	}
	// The first loads commit at cycle 202, after the cold I-cache misses;
	// steps equal cycles while skipping is off.
	want, st0 := run(-1)
	for _, from := range []int{130, 210, 300} {
		got, st := run(from)
		if st != st0 || !slices.Equal(got, want) {
			t.Errorf("skipping from step %d commits at cycles %v, never skipping at %v", from, got, want)
		}
	}
}

// TestWarmupBoundaryDropsStraddlingSample pins down Core.emit's sample-granular
// warm-up rule: the cycle whose commits straddle the remaining warm-up budget
// is dropped whole, so accountants may see fewer commits than total-minus-
// warm-up but never a partial cycle and never more.
func TestWarmupBoundaryDropsStraddlingSample(t *testing.T) {
	// 100 independent ALU uops on a 2-wide core commit 2 per cycle in the
	// steady state. A warm-up of 3 cannot land on a sample boundary: the
	// straddling sample (its 2 commits would cross from 1 remaining to done)
	// is dropped entirely.
	uops := make([]trace.Uop, 100)
	for i := range uops {
		uops[i] = alu(uint64(i))
	}
	col, st := runCoreSkip(t, uops, false, 3)
	if st.Committed != 100 {
		t.Fatalf("committed %d, want 100", st.Committed)
	}
	seen := 0
	for i := range col.samples {
		if col.samples[i].CommitN == 1 {
			t.Fatal("warm-up must never split a sample's commits")
		}
		seen += col.samples[i].CommitN
	}
	// 3 warm-up commits round up to the 4 carried by the first two 2-commit
	// samples; everything after is accounted.
	if seen != 96 {
		t.Fatalf("accountants saw %d commits, want 96 (straddling sample dropped whole)", seen)
	}
}

// TestSkipHonorsWarmupBoundary runs the warm-up boundary with skipping on and
// off: batched samples carry zero commits, so they can never straddle the
// warm-up budget, and both paths must deliver identical post-warm-up totals.
func TestSkipHonorsWarmupBoundary(t *testing.T) {
	for _, warmup := range []uint64{1, 3, 7, 25} {
		count := func(noSkip bool) (int, int64, Stats) {
			col, st := runCoreSkip(t, missLoadTrace(50), noSkip, warmup)
			commits := 0
			var cycles int64
			for i := range col.samples {
				commits += col.samples[i].CommitN
				if r := col.samples[i].Repeat; r > 1 {
					cycles += r
				} else {
					cycles++
				}
			}
			return commits, cycles, st
		}
		cOff, cyOff, stOff := count(true)
		cOn, cyOn, stOn := count(false)
		if stOff != stOn {
			t.Fatalf("warmup=%d: stats diverge", warmup)
		}
		if cOff != cOn || cyOff != cyOn {
			t.Fatalf("warmup=%d: accounted commits/cycles diverge: %d/%d vs %d/%d",
				warmup, cOff, cyOff, cOn, cyOn)
		}
	}
}
