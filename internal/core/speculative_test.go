package core

import (
	"math"
	"testing"
)

// wpSeq marks a wrong-path seq, as the pipeline numbers them.
const wpSeq = uint64(1) << 63

// specEpisode fills ep with the samples of one mispredicted branch at seq base+3
// under the speculative scheme, with the youngest fields the pipeline
// reports: uops base..base+3 dispatch and issue, a mixed cycle sends the
// branch's successor base+4 with two wrong-path uops, two wrong-path-only
// cycles follow, the squash restores the youngest fields to base+4, dead
// cycles (one of them batched) wait on base+5, and uops base+5..base+8
// dispatch, issue and commit with the rest.
func specEpisode(ep *[9]CycleSample, base, wp uint64) {
	*ep = [9]CycleSample{
		{DispatchN: 4, DispatchYoungest: base + 3, IssueN: 4, IssueYoungest: base + 3, ROBHeadNotDone: true},
		{DispatchN: 1, DispatchWrongN: 2, DispatchYoungest: base + 4, IssueN: 1, IssueWrongN: 1,
			IssueYoungest: base + 4, WrongPath: true, FECause: FEBpred, ROBHeadNotDone: true},
		{DispatchWrongN: 2, DispatchYoungest: wp | (base + 3), IssueWrongN: 2, IssueYoungest: wp | (base + 2),
			WrongPath: true, FECause: FEBpred, ROBHeadNotDone: true},
		{DispatchYoungest: wp | (base + 3), IssueWrongN: 1, IssueYoungest: wp | (base + 3),
			WrongPath: true, FEEmpty: true, FECause: FEBpred, ROBHeadNotDone: true},
		{HasSquash: true, SquashAfter: base + 4, DispatchYoungest: base + 4, IssueYoungest: base + 4,
			FEEmpty: true, FECause: FEBpred, RSEmpty: true, CommitN: 4, HasCommit: true, CommitThrough: base + 3},
		{DispatchYoungest: base + 4, IssueYoungest: base + 4, FEEmpty: true, FECause: FEBpred, RSEmpty: true, ROBHeadNotDone: true},
		{Repeat: 3, DispatchYoungest: base + 4, IssueYoungest: base + 4, FEEmpty: true, FECause: FEBpred, RSEmpty: true, ROBHeadNotDone: true},
		{DispatchN: 4, DispatchYoungest: base + 8, IssueN: 4, IssueYoungest: base + 8, CommitN: 1, HasCommit: true, CommitThrough: base + 4},
		{DispatchYoungest: base + 8, IssueYoungest: base + 8, FEEmpty: true, FECause: FEICache, RSEmpty: true,
			CommitN: 4, HasCommit: true, CommitThrough: base + 8},
	}
}

// After a squash, the dead cycles that follow it and the commit of the uop
// they waited on, no correct-path entry at or below the commit is left
// buffered and none carries a wrong-path seq: only the entry of the next
// uop, opened by the last sample's own dead cycle, remains.
func TestSpeculativeSquashDeadCyclesFoldAtCommit(t *testing.T) {
	a := NewMultiStageAccountant(Options{Width: 4, Scheme: WrongPathSpeculative})
	var ep [9]CycleSample
	specEpisode(&ep, 0, wpSeq)
	for i := range ep {
		a.Cycle(&ep[i])
	}
	if len(a.spec.order) != 1 || a.spec.order[0].seq != 9 || a.spec.order[0].wrongPath {
		t.Fatalf("buffered after commit through 8: %+v, want only the correct-path entry of uop 9", a.spec.order)
	}

	ms := a.Finalize(0)
	d := ms.Stack(StageDispatch)
	if math.Abs(d.Sum()-float64(d.Cycles)) > 1e-9 {
		t.Fatalf("dispatch stack sums to %v over %d cycles", d.Sum(), d.Cycles)
	}
	// The wrong-path-only cycle, the stalled one after it, the squash cycle
	// and the four dead cycles after it are all misprediction cost.
	if got := d.Comp[CompBpred]; got != 7 {
		t.Fatalf("dispatch bpred = %v, want 7", got)
	}
}

// The speculative path of Cycle allocates nothing in steady state, across
// mixed cycles, a squash, batched dead cycles and commits.
func TestSpeculativeCycleZeroAlloc(t *testing.T) {
	a := NewMultiStageAccountant(Options{Width: 4, Scheme: WrongPathSpeculative, PendingBound: 64})
	base := uint64(0)
	var ep [9]CycleSample
	episode := func() {
		specEpisode(&ep, base, wpSeq)
		for i := range ep {
			a.Cycle(&ep[i])
		}
		base += 9
	}
	for i := 0; i < 4; i++ {
		episode() // grow the payload pool to its high-water mark
	}
	if n := testing.AllocsPerRun(100, episode); n != 0 {
		t.Fatalf("speculative Cycle allocates %v times per episode, want 0", n)
	}
	if p := a.PendingPeak(); p == 0 || p > 64 {
		t.Fatalf("PendingPeak = %d, want within (0, 64]", p)
	}
}

// TestSpeculativeIdleBatchMatchesPerCycle: a batched idle window leaves the
// speculative buffer exactly as the same cycles one by one do, with each
// stage's cycles on the next uop that stage expects. Dispatch runs ahead
// of issue here (a full ROB behind a missing load), so charging the two
// stages to one uop shows.
func TestSpeculativeIdleBatchMatchesPerCycle(t *testing.T) {
	idle := CycleSample{DispatchYoungest: 12, IssueYoungest: 7, ROBFull: true,
		ROBHeadClass: ProdDCache, ROBHeadNotDone: true, FirstNonReadyClass: ProdDCache}
	// buffered totals each uop's entries: the per-cycle path may open a
	// uop more than one entry when the stages alternate between uops.
	buffered := func(a *MultiStageAccountant) map[uint64]pendingComp {
		out := make(map[uint64]pendingComp, len(a.spec.order))
		for _, r := range a.spec.order {
			c := out[r.seq]
			for st := range c {
				for k := range c[st] {
					c[st][k] += a.spec.comps[r.slot][st][k]
				}
			}
			out[r.seq] = c
		}
		return out
	}
	one := NewMultiStageAccountant(Options{Width: 4, Scheme: WrongPathSpeculative})
	for i := 0; i < 5; i++ {
		s := idle
		one.Cycle(&s)
	}
	batch := NewMultiStageAccountant(Options{Width: 4, Scheme: WrongPathSpeculative})
	s := idle
	s.Repeat = 5
	batch.Cycle(&s)

	want, got := buffered(one), buffered(batch)
	if len(got) != len(want) {
		t.Fatalf("batched idle buffered uops %v, per-cycle %v", got, want)
	}
	for seq, c := range want {
		if got[seq] != c {
			t.Fatalf("uop %d: batched idle buffered %v, per-cycle %v", seq, got[seq], c)
		}
	}
	if want[13][StageDispatch][CompDCache] != 5 || want[8][StageIssue][CompDCache] != 5 {
		t.Fatalf("per-cycle buffer %v: want dispatch's 5 cycles on uop 13 and issue's on uop 8", want)
	}
}
