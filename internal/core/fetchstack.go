package core

import "perfstacks/internal/invariant"

// FetchAccountant measures a CPI stack at the fetch/decode stage — the
// paper notes "similar accounting can be done at other stages (e.g., fetch
// and decode)" (§III-A). The classification mirrors the dispatch column of
// Table II one stage earlier: when fetch delivers fewer than W uops, the
// cause is either the fetch unit itself (I-cache miss, branch redirect,
// microcode occupancy) or back-pressure from a full decode queue, which is
// blamed on the downstream state exactly like a full ROB/RS at dispatch.
//
// The fetch stack extends the multi-stage bracket upward: its frontend
// components are at least as large as the dispatch stack's, so for frontend
// events the bound ordering is fetch >= dispatch >= issue >= commit.
type FetchAccountant struct {
	acct   stageAcct
	width  float64
	cycles int64
	insts  uint64
	dbg    debugTick
}

// NewFetchAccountant builds an accountant for normalization width w.
func NewFetchAccountant(w int) *FetchAccountant {
	if w < 1 {
		w = 1
	}
	return &FetchAccountant{width: float64(w)}
}

// Cycle consumes one sample.
func (a *FetchAccountant) Cycle(s *CycleSample) {
	if invariant.Enabled {
		debugCheckSample(s)
		if a.dbg.due(a.cycles) {
			a.debugConserve()
		}
	}
	if s.Repeat > 1 {
		// Idle window: zero fetch throughput with a constant stall cause.
		a.cycles += s.Repeat
		a.acct.idle(a.classify(s), a.width, s.Repeat)
		return
	}
	a.cycles++
	a.insts += uint64(s.CommitN)
	stall := a.acct.cycle(float64(s.FetchN), a.width)
	if stall <= 0 {
		return
	}
	a.acct.comp[a.classify(s)] += stall
}

func (a *FetchAccountant) classify(s *CycleSample) Component {
	if s.Unsched {
		return CompUnsched
	}
	if s.WrongPath {
		return CompBpred
	}
	if s.FetchQueueFull {
		// Back-pressure: the decode queue is full because dispatch is not
		// draining it; blame the downstream blockage like dispatch does.
		if s.ROBFull || s.RSFull {
			return s.ROBHeadClass.Component()
		}
		return CompOther
	}
	if s.FetchCause != FENone {
		return s.FetchCause.Component()
	}
	return CompOther
}

// Finalize returns the fetch-stage stack.
func (a *FetchAccountant) Finalize() Stack {
	if invariant.Enabled {
		a.debugConserve()
	}
	return Stack{
		Stage:        StageFetch,
		Width:        int(a.width),
		Comp:         a.acct.comp,
		Cycles:       a.cycles,
		Instructions: a.insts,
	}
}
