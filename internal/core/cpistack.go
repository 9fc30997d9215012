package core

import "perfstacks/internal/invariant"

// WrongPathScheme selects how dispatch- and issue-stage accounting treats
// speculatively processed (possibly wrong-path) uops, per §III-B.
type WrongPathScheme int

const (
	// WrongPathOracle uses functional-first knowledge: wrong-path uops are
	// excluded from n and cycles spent processing them charge the branch
	// predictor component directly. This is the default in a
	// functional-first simulator.
	WrongPathOracle WrongPathScheme = iota
	// WrongPathSimple counts all uops as correct-path; at Finalize the
	// surplus of the dispatch/issue base components over the commit base
	// component is transferred to the branch component (the Yasin-style
	// "bad speculation = issue slots - retire slots" correction). This is
	// the scheme recommended for hardware.
	WrongPathSimple
	// WrongPathSpeculative keeps per-uop speculative counters: each cycle's
	// increments are tagged to the uop being processed and folded into the
	// global counters at commit, or into the branch component on squash.
	WrongPathSpeculative

	// numWrongPathSchemes bounds the set for tests; add new schemes above
	// it.
	numWrongPathSchemes
)

// String names the scheme.
func (s WrongPathScheme) String() string {
	switch s {
	case WrongPathOracle:
		return "oracle"
	case WrongPathSimple:
		return "simple"
	case WrongPathSpeculative:
		return "speculative"
	}
	return "scheme?"
}

// Options configures a multi-stage accountant.
type Options struct {
	// Width is the normalization width W: the minimum of all stage widths
	// (§III-A). Stages wider than W may see f > 1; the excess carries into
	// the next cycle.
	Width int
	// Scheme selects the wrong-path handling.
	Scheme WrongPathScheme
	// UseStageWidths disables the paper's min-width normalization and
	// divides each stage by its own width instead — the naive scheme §III-A
	// argues against. Provided for the ablation experiment: without the
	// normalization the base components diverge across stages and wider
	// stages report spurious stall cycles.
	UseStageWidths bool
	// StageWidths holds the per-stage widths for UseStageWidths.
	StageWidths [NumStages]int
	// PendingBound is the most uops the speculative scheme can have
	// buffered at once (see sim's pendingBound for its derivation). It
	// sizes the buffer, and simdebug builds assert it; 0 picks a default
	// capacity and checks nothing. It never changes the stacks.
	PendingBound int
}

// stageAcct accumulates one stage's stack with the width-carryover rule.
type stageAcct struct {
	comp  [NumComponents]float64
	carry float64
	// dbgMaxN records the largest n seen, for the simdebug carry-bound check
	// (carry <= w only holds while every n fits the width). Written only when
	// invariant.Enabled.
	dbgMaxN float64
}

// cycle accounts one cycle's base fraction for n uops processed against
// width w and returns the stall remainder (0 when the stage was fully used).
// The caller charges the remainder to the classified component; deferring
// classification keeps it off the common full-width path.
func (a *stageAcct) cycle(n float64, w float64) float64 {
	if invariant.Enabled && n > a.dbgMaxN {
		a.dbgMaxN = n
	}
	used := n + a.carry
	if used >= w {
		a.carry = used - w
		a.comp[CompBase]++
		return 0
	}
	a.carry = 0
	f := used / w
	a.comp[CompBase] += f
	return 1 - f
}

// idle accounts r consecutive zero-throughput cycles whose stall classifies
// as cls, bit-identically to r calls of cycle(0, w) plus the stall charge.
// Cycles that still drain a width carryover replay the exact per-cycle
// operations; once the carry is exhausted each remaining cycle contributes
// exactly 1.0 to cls, which addWholeCycles applies in one batched add.
func (a *stageAcct) idle(cls Component, w float64, r int64) {
	for r > 0 && a.carry > 0 {
		if stall := a.cycle(0, w); stall > 0 {
			a.comp[cls] += stall
		}
		r--
	}
	if r > 0 {
		addWholeCycles(&a.comp[cls], r)
	}
}

// MultiStageAccountant measures CPI stacks at the dispatch, issue and commit
// stages simultaneously — the paper's multi-stage CPI stack proposal. It
// consumes one CycleSample per simulated cycle.
type MultiStageAccountant struct {
	opts   Options
	stages [NumStages]stageAcct
	cycles int64
	insts  uint64
	spec   *specState
	dbg    debugTick
}

// NewMultiStageAccountant builds an accountant. Width must be >= 1.
func NewMultiStageAccountant(opts Options) *MultiStageAccountant {
	if opts.Width < 1 {
		opts.Width = 1
	}
	m := &MultiStageAccountant{opts: opts}
	if opts.Scheme == WrongPathSpeculative {
		m.spec = newSpecState(opts.PendingBound)
	}
	return m
}

// Options returns the accountant's configuration.
func (m *MultiStageAccountant) Options() Options { return m.opts }

// PendingPeak returns the most uops the speculative scheme has held
// buffered at once so far (0 under the other schemes).
func (m *MultiStageAccountant) PendingPeak() int {
	if m.spec == nil {
		return 0
	}
	return m.spec.peak
}

// Cycle consumes one cycle's sample. A sample with Repeat > 1 stands for
// that many identical idle cycles and is accounted in one batched step.
func (m *MultiStageAccountant) Cycle(s *CycleSample) {
	if invariant.Enabled {
		debugCheckSample(s)
		if m.dbg.due(m.cycles) {
			m.debugConserve()
		}
	}
	if s.Repeat > 1 {
		m.cycleIdle(s)
		return
	}
	m.cycles++
	m.insts += uint64(s.CommitN)
	w := float64(m.opts.Width)
	wd, wi, wc := w, w, w
	if m.opts.UseStageWidths {
		wd = float64(m.opts.StageWidths[StageDispatch])
		wi = float64(m.opts.StageWidths[StageIssue])
		wc = float64(m.opts.StageWidths[StageCommit])
	}

	countWrong := m.opts.Scheme != WrongPathOracle

	// Dispatch stage.
	nd := float64(s.DispatchN)
	if countWrong {
		nd += float64(s.DispatchWrongN)
	}
	// Issue stage.
	ni := float64(s.IssueN)
	if countWrong {
		ni += float64(s.IssueWrongN)
	}

	if m.spec != nil {
		// Speculative scheme: dispatch/issue increments go to per-uop
		// buffers; commit-stage accounting is never speculative because
		// committed uops are correct-path by construction.
		m.spec.accountStage(StageDispatch, &m.stages[StageDispatch], s, nd, wd, m.classifyDispatch)
		m.spec.accountStage(StageIssue, &m.stages[StageIssue], s, ni, wi, m.classifyIssue)
	} else {
		if stall := m.stages[StageDispatch].cycle(nd, wd); stall > 0 {
			m.stages[StageDispatch].comp[m.classifyDispatch(s)] += stall
		}
		if stall := m.stages[StageIssue].cycle(ni, wi); stall > 0 {
			m.stages[StageIssue].comp[m.classifyIssue(s)] += stall
		}
	}
	if stall := m.stages[StageCommit].cycle(float64(s.CommitN), wc); stall > 0 {
		m.stages[StageCommit].comp[m.classifyCommit(s)] += stall
	}

	if m.spec != nil {
		m.spec.events(s)
	}
}

// cycleIdle accounts an idle-window sample: s.Repeat consecutive cycles with
// zero throughput at every stage and no commit/squash events. Every stage's
// stall classification is constant across the window, so each stage charges
// Repeat whole cycles (after draining any width carryover) to one component.
func (m *MultiStageAccountant) cycleIdle(s *CycleSample) {
	r := s.Repeat
	m.cycles += r
	w := float64(m.opts.Width)
	wd, wi, wc := w, w, w
	if m.opts.UseStageWidths {
		wd = float64(m.opts.StageWidths[StageDispatch])
		wi = float64(m.opts.StageWidths[StageIssue])
		wc = float64(m.opts.StageWidths[StageCommit])
	}
	if m.spec != nil {
		m.spec.accountStageIdle(StageDispatch, &m.stages[StageDispatch], s, wd, m.classifyDispatch, r)
		m.spec.accountStageIdle(StageIssue, &m.stages[StageIssue], s, wi, m.classifyIssue, r)
	} else {
		m.stages[StageDispatch].idle(m.classifyDispatch(s), wd, r)
		m.stages[StageIssue].idle(m.classifyIssue(s), wi, r)
	}
	m.stages[StageCommit].idle(m.classifyCommit(s), wc, r)
	// Idle samples never carry commit/squash events, so there is no
	// speculative-state event processing to do.
}

// classifyDispatch implements Table II, dispatch column (lines 3-16), with
// the scheme-dependent wrong-path handling of §III-B layered on top.
func (m *MultiStageAccountant) classifyDispatch(s *CycleSample) Component {
	if s.Unsched {
		return CompUnsched
	}
	if m.opts.Scheme == WrongPathOracle && s.WrongPath {
		// Functional-first knowledge: any slots lost while fetching the
		// wrong path are branch misprediction cycles.
		return CompBpred
	}
	if s.FEEmpty {
		return s.FECause.Component()
	}
	if s.ROBFull || s.RSFull {
		return s.ROBHeadClass.Component()
	}
	return CompOther
}

// classifyIssue implements Table II, issue column. The issue stage is the
// only one with dependence information: the blamed instruction is the
// producer of the first non-ready reservation-station entry.
func (m *MultiStageAccountant) classifyIssue(s *CycleSample) Component {
	if s.Unsched {
		return CompUnsched
	}
	if s.RSEmpty {
		if m.opts.Scheme == WrongPathOracle && s.WrongPath {
			return CompBpred
		}
		if s.FECause != FENone {
			return s.FECause.Component()
		}
		// RS empty with a quiet frontend: everything in flight has issued
		// and the ROB is draining; blame the oldest in-flight instruction.
		if !s.ROBEmpty {
			return s.ROBHeadClass.Component()
		}
		return CompOther
	}
	if m.opts.Scheme == WrongPathOracle && s.WrongPath && s.IssueN == 0 {
		// Only wrong-path work is available to issue.
		return CompBpred
	}
	if s.FirstNonReadyClass != ProdNone {
		return s.FirstNonReadyClass.Component()
	}
	// Waiting uops were ready but could not issue: structural stall
	// (port/functional-unit conflicts) — only detectable at the issue stage.
	return CompOther
}

// classifyCommit implements Table II, commit column.
func (m *MultiStageAccountant) classifyCommit(s *CycleSample) Component {
	if s.Unsched {
		return CompUnsched
	}
	if s.ROBEmpty {
		if s.FECause != FENone {
			return s.FECause.Component()
		}
		return CompOther
	}
	if s.ROBHeadNotDone {
		return s.ROBHeadClass.Component()
	}
	// Head was done but commit bandwidth ran out.
	return CompOther
}

// Finalize closes the measurement and returns the multi-stage stacks.
// instructions is the committed correct-path uop count (the accountant also
// counts commits itself; the parameter allows callers to override when
// sampling only part of a run — pass 0 to use the internal count).
func (m *MultiStageAccountant) Finalize(instructions uint64) *MultiStack {
	if instructions == 0 {
		instructions = m.insts
	}
	if m.spec != nil {
		m.spec.flush(&m.stages)
	}
	if invariant.Enabled {
		m.debugConserve()
	}
	out := &MultiStack{}
	for st := Stage(0); st < NumStages; st++ {
		out.Stacks[st] = Stack{
			Stage:        st,
			Width:        m.opts.Width,
			Comp:         m.stages[st].comp,
			Cycles:       m.cycles,
			Instructions: instructions,
		}
	}
	if m.opts.Scheme == WrongPathSimple {
		// Transfer the dispatch/issue base surplus over the commit base into
		// the branch component: bad speculation = processed slots − retired
		// slots (§III-B, the Yasin-style correction).
		commitBase := out.Stacks[StageCommit].Comp[CompBase]
		for _, st := range []Stage{StageDispatch, StageIssue} {
			surplus := out.Stacks[st].Comp[CompBase] - commitBase
			if surplus > 0 {
				out.Stacks[st].Comp[CompBase] -= surplus
				out.Stacks[st].Comp[CompBpred] += surplus
			}
		}
	}
	return out
}

// Cycles returns the number of cycles consumed so far.
func (m *MultiStageAccountant) Cycles() int64 { return m.cycles }

// Instructions returns the number of commits counted so far.
func (m *MultiStageAccountant) Instructions() uint64 { return m.insts }
