package core

import "perfstacks/internal/invariant"

// specState implements the speculative-counter wrong-path scheme of §III-B:
// instead of adding stall cycles directly to the global counters, each
// cycle's dispatch- and issue-stage increments are kept in a per-uop
// speculative buffer. When a uop commits (proving it was correct-path) its
// buffered increments are added to the global counters; when a branch
// misprediction squashes uops, the buffered increments of the squashed
// (wrong-path) uops are folded into the global branch component.
//
// The buffer is a FIFO in creation order. Its 16-byte headers (order) are
// kept apart from the per-uop increments (comps), which sit in a pool of
// slots that grows to the run's high-water mark and is then recycled: a
// fold adds a slot into committed in place and frees it, and only the
// headers of the entries that stay are moved. The fold order — creation
// order — fixes the float sums in committed, and so the result bytes.
type specState struct {
	order []pendingRef
	comps []pendingComp
	free  []int32
	// bound is the in-flight bound on len(order) (Options.PendingBound);
	// peak is the high-water mark of len(order).
	bound, peak int
	// committed accumulates folded increments per stage until flush adds
	// them to the stage accumulators. Only the dispatch and issue slots are
	// ever written: commit-stage accounting is never speculative.
	committed [NumStages][NumComponents]float64
}

// pendingRef is the header of one buffered uop: its attribution seq and
// path, and the comps slot holding its increments.
type pendingRef struct {
	seq       uint64
	slot      int32
	wrongPath bool
}

// pendingComp buffers the increments attributed to one uop. As with
// specState.committed, the commit-stage slot stays zero by construction.
type pendingComp [NumStages][NumComponents]float64

// defaultPending is the header capacity when no bound is given, and the
// payload pool's starting capacity: the measured peaks are a few times the
// ROB size, far below the proven bound.
const defaultPending = 256

// newSpecState preallocates the headers for bound in-flight entries (0
// picks defaultPending and checks nothing). The payload pool grows to the
// run's high-water mark and is then recycled.
func newSpecState(bound int) *specState {
	c := bound
	if c < 1 {
		c = defaultPending
	}
	return &specState{
		order: make([]pendingRef, 0, c),
		comps: make([]pendingComp, 0, defaultPending),
		free:  make([]int32, 0, c),
		bound: bound,
	}
}

// accountStage mirrors stageAcct.cycle but routes the increments into the
// per-uop buffer. st must be StageDispatch or StageIssue.
func (sp *specState) accountStage(st Stage, acct *stageAcct, s *CycleSample, n, w float64, cls func(*CycleSample) Component) {
	if invariant.Enabled && n > acct.dbgMaxN {
		acct.dbgMaxN = n
	}
	used := n + acct.carry
	var f float64
	if used >= w {
		acct.carry = used - w
		f = 1
	} else {
		acct.carry = 0
		f = used / w
	}

	// Determine the uop this cycle's activity is attributed to: the
	// youngest uop processed, or (on a dead cycle) the next uop expected.
	var seq uint64
	var wrong bool
	// only dispatch and issue account speculatively; callers never pass the commit or fetch stages
	switch st {
	case StageDispatch:
		if s.DispatchN+s.DispatchWrongN > 0 {
			seq = s.DispatchYoungest
			wrong = s.DispatchN == 0 && s.DispatchWrongN > 0
		} else {
			seq = s.DispatchYoungest + 1
			wrong = s.WrongPath
		}
	default: // StageIssue
		if s.IssueN+s.IssueWrongN > 0 {
			seq = s.IssueYoungest
			wrong = s.IssueN == 0 && s.IssueWrongN > 0
		} else {
			seq = s.IssueYoungest + 1
			wrong = s.WrongPath
		}
	}

	e := sp.entry(seq, wrong)
	e[st][CompBase] += f
	if f < 1 {
		e[st][cls(s)] += 1 - f
	}
}

// accountStageIdle is the batched-idle counterpart of accountStage: r
// consecutive cycles with zero throughput, attributed to the same next
// expected uop. Carry-draining cycles replay the per-cycle float operations
// exactly; the remainder adds whole cycles to the classified component.
func (sp *specState) accountStageIdle(st Stage, acct *stageAcct, s *CycleSample, w float64, cls func(*CycleSample) Component, r int64) {
	var seq uint64
	// only dispatch and issue account speculatively; callers never pass the commit or fetch stages
	switch st {
	case StageDispatch:
		seq = s.DispatchYoungest + 1
	default: // StageIssue
		seq = s.IssueYoungest + 1
	}
	e := sp.entry(seq, s.WrongPath)
	for r > 0 && acct.carry > 0 {
		used := acct.carry
		var f float64
		if used >= w {
			acct.carry = used - w
			f = 1
		} else {
			acct.carry = 0
			f = used / w
		}
		e[st][CompBase] += f
		if f < 1 {
			e[st][cls(s)] += 1 - f
		}
		r--
	}
	if r > 0 {
		addWholeCycles(&e[st][cls(s)], r)
	}
}

// entry finds or creates the pending entry for seq: the newest entry with
// that seq and path, searched back from the newest only as far as the
// first entry with a smaller seq.
func (sp *specState) entry(seq uint64, wrong bool) *pendingComp {
	// The attribution target is almost always the most recent entry.
	for i := len(sp.order) - 1; i >= 0; i-- {
		r := &sp.order[i]
		if r.seq == seq && r.wrongPath == wrong {
			return &sp.comps[r.slot]
		}
		if r.seq < seq {
			break
		}
	}
	var slot int32
	if n := len(sp.free); n > 0 {
		slot = sp.free[n-1]
		sp.free = sp.free[:n-1]
		sp.comps[slot] = pendingComp{}
	} else {
		slot = int32(len(sp.comps))
		sp.comps = append(sp.comps, pendingComp{})
	}
	sp.order = append(sp.order, pendingRef{seq: seq, slot: slot, wrongPath: wrong})
	if len(sp.order) > sp.peak {
		sp.peak = len(sp.order)
		if invariant.Enabled && sp.bound > 0 {
			invariant.Assertf(sp.peak <= sp.bound,
				"speculative buffer holds %d entries, above the in-flight bound %d", sp.peak, sp.bound)
		}
	}
	return &sp.comps[slot]
}

// events processes the cycle's commit/squash notifications.
func (sp *specState) events(s *CycleSample) {
	if s.HasSquash {
		sp.squash()
	}
	if s.HasCommit {
		sp.commit(s.CommitThrough)
	}
}

// commit folds, in creation order, the buffered increments of the
// correct-path uops with seq <= through into committed, which flush adds to
// the stage accumulators.
func (sp *specState) commit(through uint64) {
	keep := sp.order[:0]
	for _, r := range sp.order {
		if r.wrongPath || r.seq > through {
			keep = append(keep, r)
			continue
		}
		c := &sp.comps[r.slot]
		for st := Stage(0); st < NumStages; st++ {
			for k := 0; k < int(NumComponents); k++ {
				sp.committed[st][k] += c[st][k]
			}
		}
		sp.free = append(sp.free, r.slot)
	}
	sp.order = keep
}

// squash folds all wrong-path buffered increments into the global branch
// component: their base cycles and stall cycles were all misprediction cost.
func (sp *specState) squash() {
	keep := sp.order[:0]
	for _, r := range sp.order {
		if !r.wrongPath {
			keep = append(keep, r)
			continue
		}
		c := &sp.comps[r.slot]
		for st := Stage(0); st < NumStages; st++ {
			var total float64
			for k := 0; k < int(NumComponents); k++ {
				total += c[st][k]
			}
			sp.committed[st][CompBpred] += total
		}
		sp.free = append(sp.free, r.slot)
	}
	sp.order = keep
}

// flush folds committed increments and any still-pending correct-path
// entries (end of trace: everything left commits) into the stage
// accumulators.
func (sp *specState) flush(stages *[NumStages]stageAcct) {
	sp.commit(^uint64(0)) // fold all remaining correct-path entries
	sp.squash()           // and drop any dangling wrong-path ones
	for st := Stage(0); st < NumStages; st++ {
		for c := 0; c < int(NumComponents); c++ {
			stages[st].comp[c] += sp.committed[st][c]
		}
	}
	sp.committed = [NumStages][NumComponents]float64{}
}
