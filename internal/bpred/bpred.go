// Package bpred implements the branch prediction substrate for the core
// model: direction predictors (bimodal, gshare and a tournament hybrid), a
// branch target buffer, and a return address stack. A Perfect predictor is
// provided for the idealization experiments (perfect direction AND target
// prediction, as in the paper's "perfect branch prediction" runs).
package bpred

import "perfstacks/internal/trace"

// Outcome is the result of consulting the predictor for one branch.
type Outcome struct {
	// Mispredicted is true when either the predicted direction or the
	// predicted target of a taken branch was wrong.
	Mispredicted bool
	// DirectionWrong distinguishes direction from target mispredictions.
	DirectionWrong bool
	// TargetWrong is true for taken branches whose BTB/RAS target missed.
	TargetWrong bool
}

// Predictor models a branch prediction unit. Lookup consults and then
// updates the structures with the actual outcome (predict-and-train in one
// call, as appropriate for a trace-driven model where the actual outcome is
// known).
type Predictor interface {
	// Lookup predicts the given dynamic branch and trains on its outcome.
	Lookup(u *trace.Uop) Outcome
	// Reset restores the power-on state.
	Reset()
}

// Perfect never mispredicts. Used for the perfect-bpred idealizations.
type Perfect struct{}

// Lookup implements Predictor.
func (Perfect) Lookup(*trace.Uop) Outcome { return Outcome{} }

// Reset implements Predictor.
func (Perfect) Reset() {}

// Config sizes a realistic predictor.
type Config struct {
	// BimodalBits is log2 of the bimodal table size.
	BimodalBits int
	// GshareBits is log2 of the gshare table size and history length.
	GshareBits int
	// ChoiceBits is log2 of the tournament chooser table size.
	ChoiceBits int
	// BTBEntries and BTBWays size the branch target buffer.
	BTBEntries int
	BTBWays    int
	// RASEntries sizes the return address stack.
	RASEntries int
}

// DefaultConfig returns a predictor sizing typical of a big OoO core.
func DefaultConfig() Config {
	return Config{
		BimodalBits: 13,
		GshareBits:  13,
		ChoiceBits:  12,
		BTBEntries:  4096,
		BTBWays:     4,
		RASEntries:  32,
	}
}

// Tournament is a hybrid bimodal/gshare direction predictor with a BTB and a
// return address stack, in the style of the predictors in Sniper's Intel
// core models.
type Tournament struct {
	cfg     Config
	bimodal []uint8 // 2-bit saturating counters
	gshare  []uint8
	choice  []uint8 // 2-bit: high = prefer gshare
	history uint64
	btb     *BTB
	ras     *RAS

	// Stats accumulates dynamic prediction statistics.
	Stats Stats
}

// Stats counts predictor events.
type Stats struct {
	Branches       uint64
	Mispredictions uint64
	DirectionWrong uint64
	TargetWrong    uint64
}

// MispredictRate returns mispredictions per branch (0 when no branches).
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredictions) / float64(s.Branches)
}

// NewTournament builds a Tournament predictor from cfg.
func NewTournament(cfg Config) *Tournament {
	t := &Tournament{
		cfg:     cfg,
		bimodal: make([]uint8, 1<<cfg.BimodalBits),
		gshare:  make([]uint8, 1<<cfg.GshareBits),
		choice:  make([]uint8, 1<<cfg.ChoiceBits),
		btb:     NewBTB(cfg.BTBEntries, cfg.BTBWays),
		ras:     NewRAS(cfg.RASEntries),
	}
	t.Reset()
	return t
}

// Reset implements Predictor.
func (t *Tournament) Reset() {
	for i := range t.bimodal {
		t.bimodal[i] = 1 // weakly not-taken
	}
	for i := range t.gshare {
		t.gshare[i] = 1
	}
	for i := range t.choice {
		t.choice[i] = 2 // weakly prefer gshare
	}
	t.history = 0
	t.btb.Reset()
	t.ras.Reset()
	t.Stats = Stats{}
}

func taken(ctr uint8) bool { return ctr >= 2 }

func train(ctr *uint8, taken bool) {
	if taken {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
}

// Lookup implements Predictor.
func (t *Tournament) Lookup(u *trace.Uop) Outcome {
	t.Stats.Branches++

	bi := (u.PC >> 2) & uint64(len(t.bimodal)-1)
	gi := ((u.PC >> 2) ^ t.history) & uint64(len(t.gshare)-1)
	ci := (u.PC >> 2) & uint64(len(t.choice)-1)

	biPred := taken(t.bimodal[bi])
	gsPred := taken(t.gshare[gi])
	pred := biPred
	if taken(t.choice[ci]) {
		pred = gsPred
	}

	// Calls are always taken with a known target; returns consult the RAS;
	// conditional/indirect branches use the direction predictor + BTB.
	var out Outcome
	// only calls (RAS push) and returns (RAS pop) need special handling; the default arm predicts all other branch kinds
	switch u.Op {
	case trace.OpCall:
		t.ras.Push(u.PC + 4)
		// Direct calls: direction and target are trivially correct once the
		// BTB has seen the call; model a target miss on a cold BTB entry.
		predTarget, hit := t.btb.Lookup(u.PC)
		if !hit || predTarget != u.Target {
			out.TargetWrong = true
		}
		t.btb.Update(u.PC, u.Target)
	case trace.OpRet:
		predTarget, ok := t.ras.Pop()
		if !ok || predTarget != u.Target {
			out.TargetWrong = true
		}
	default:
		out.DirectionWrong = pred != u.Taken
		if u.Taken && !out.DirectionWrong {
			predTarget, hit := t.btb.Lookup(u.PC)
			if !hit || predTarget != u.Target {
				out.TargetWrong = true
			}
		}
		if u.Taken {
			t.btb.Update(u.PC, u.Target)
		}
		// Train direction structures.
		if biPred != gsPred {
			train(&t.choice[ci], gsPred == u.Taken)
		}
		train(&t.bimodal[bi], u.Taken)
		train(&t.gshare[gi], u.Taken)
		t.history = ((t.history << 1) | b2u(u.Taken)) & ((1 << uint(t.cfg.GshareBits)) - 1)
	}

	out.Mispredicted = out.DirectionWrong || out.TargetWrong
	if out.Mispredicted {
		t.Stats.Mispredictions++
	}
	if out.DirectionWrong {
		t.Stats.DirectionWrong++
	}
	if out.TargetWrong {
		t.Stats.TargetWrong++
	}
	return out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
