// Package cpu implements the cycle-level out-of-order superscalar core
// model that the accounting layer (internal/core) measures. The model is
// trace-driven and functional-first, in the style of Sniper's core models:
// a trace.Reader supplies the correct-path uop stream with pre-resolved
// register dataflow, and the pipeline replays it through fetch/decode,
// dispatch into a reorder buffer and unified reservation stations, port- and
// latency-constrained issue to functional units (with loads walking the
// cache hierarchy), and in-order commit. Branch mispredictions redirect the
// frontend at branch resolution; wrong-path fetch can be modeled either as
// a frontend stall (functional-first) or by synthesizing wrong-path uops
// that occupy resources and are squashed at resolution.
//
// Each simulated cycle the core emits one core.CycleSample carrying the
// per-stage signals the paper's accounting algorithms (Tables II and III)
// need; attached accountants consume the samples.
package cpu

import (
	"fmt"

	"perfstacks/internal/trace"
)

// WrongPathMode selects how the frontend behaves between a mispredicted
// branch entering the pipeline and its resolution.
type WrongPathMode int

const (
	// WrongPathNone stalls fetch until the branch resolves and the redirect
	// completes (the functional-first model; wrong-path instructions are
	// not simulated).
	WrongPathNone WrongPathMode = iota
	// WrongPathSynth synthesizes wrong-path uops that dispatch, issue and
	// occupy resources until they are squashed at branch resolution. This
	// enables evaluating the hardware-feasible accounting schemes of
	// §III-B, which cannot observe path correctness before resolution.
	WrongPathSynth
)

// Latencies holds per-op execution latencies in cycles. Loads take their
// latency from the cache hierarchy instead.
type Latencies struct {
	ALU       int64
	Mul       int64
	Div       int64
	Branch    int64
	FPAdd     int64
	FPMul     int64
	FPDiv     int64
	FMA       int64
	VInt      int64
	Broadcast int64
	Store     int64
}

// DefaultLatencies returns latencies typical of a recent Intel core.
func DefaultLatencies() Latencies {
	return Latencies{
		ALU: 1, Mul: 3, Div: 20, Branch: 1,
		FPAdd: 4, FPMul: 4, FPDiv: 18, FMA: 5,
		VInt: 1, Broadcast: 3, Store: 1,
	}
}

// Params configures the core pipeline.
type Params struct {
	// Name labels the configuration (e.g. "BDW").
	Name string

	// Stage widths in uops/cycle.
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int

	// Structure sizes.
	ROBSize     int
	RSSize      int
	FEQueueSize int

	// Functional units / issue ports.
	IntALUs    int
	IntMulDivs int
	LoadPorts  int
	StorePorts int
	VFPUnits   int
	// VectorLanes is the vector width v in lanes (e.g. 16 for AVX-512
	// single precision).
	VectorLanes int

	// Lat holds execution latencies.
	Lat Latencies

	// MispredictPenalty is the frontend redirect/refill delay in cycles
	// after a mispredicted branch resolves.
	MispredictPenalty int64

	// WrongPath selects the wrong-path model.
	WrongPath WrongPathMode

	// MemDisambiguation makes loads wait for older in-flight stores to the
	// same cache line (conservative memory-order enforcement). The resulting
	// issue-stage structural stalls are the "predicted memory address
	// conflicts" the paper lists among the stalls only the issue stage can
	// observe.
	MemDisambiguation bool

	// SingleCycleALU is the paper's idealization where all arithmetic and
	// logic instructions (everything but memory ops and branches) complete
	// in one cycle.
	SingleCycleALU bool
	// PerfectBpred is the paper's perfect branch (direction AND target)
	// prediction idealization.
	PerfectBpred bool
}

// Validate reports configuration errors.
func (p *Params) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{p.FetchWidth >= 1, "fetch width"},
		{p.DispatchWidth >= 1, "dispatch width"},
		{p.IssueWidth >= 1, "issue width"},
		{p.CommitWidth >= 1, "commit width"},
		{p.ROBSize >= 2, "ROB size"},
		{p.RSSize >= 1, "RS size"},
		{p.FEQueueSize >= 1, "frontend queue size"},
		{p.IntALUs >= 1, "integer ALUs"},
		{p.LoadPorts >= 1, "load ports"},
		{p.StorePorts >= 1, "store ports"},
		{p.VFPUnits >= 1, "vector FP units"},
		{p.VectorLanes >= 1, "vector lanes"},
		{p.MispredictPenalty >= 0, "mispredict penalty"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("core %q: invalid %s", p.Name, c.msg)
		}
	}
	// The issue stage assumes no uop completes in the cycle it issues: a
	// wakeup never makes a consumer ready in the same cycle, and every
	// completion lands on the calendar after the current cycle.
	l := &p.Lat
	for _, c := range []struct {
		lat  int64
		name string
	}{
		{l.ALU, "ALU"}, {l.Mul, "Mul"}, {l.Div, "Div"}, {l.Branch, "Branch"},
		{l.FPAdd, "FPAdd"}, {l.FPMul, "FPMul"}, {l.FPDiv, "FPDiv"}, {l.FMA, "FMA"},
		{l.VInt, "VInt"}, {l.Broadcast, "Broadcast"}, {l.Store, "Store"},
	} {
		if c.lat < 1 {
			return fmt.Errorf("core %q: invalid %s latency %d (must be >= 1)", p.Name, c.name, c.lat)
		}
	}
	return nil
}

// MinWidth returns the minimum of the stage widths — the normalization
// width W of §III-A ("the ideal CPI is determined by the narrowest stage").
func (p Params) MinWidth() int {
	w := p.DispatchWidth
	if p.IssueWidth < w {
		w = p.IssueWidth
	}
	if p.CommitWidth < w {
		w = p.CommitWidth
	}
	if p.FetchWidth < w {
		w = p.FetchWidth
	}
	return w
}

// progressBound returns how many cycles a correct pipeline may go without
// a commit or a barrier yield, counted from the last one or from the latest
// completion of a hierarchy access (a load or an I-cache fill): the ROB
// size times the longest fixed latency plus a redirect. A head uop waits at
// most a divider's occupancy to issue and its own latency to complete, so
// this is generous; it only has to separate a stall from a hang.
func (p *Params) progressBound() int64 {
	l := &p.Lat
	longest := max(l.ALU, l.Mul, l.Div, l.Branch, l.FPAdd, l.FPMul, l.FPDiv, l.FMA, l.VInt, l.Broadcast, l.Store)
	return int64(p.ROBSize) * (longest + p.MispredictPenalty + 1)
}

// latency returns the execution latency for op under the configured
// idealizations.
func (p *Params) latency(op trace.Op) int64 {
	if p.SingleCycleALU && !op.IsMem() && !op.IsBranch() {
		return 1
	}
	switch op {
	case trace.OpALU, trace.OpNop:
		return p.Lat.ALU
	case trace.OpMul:
		return p.Lat.Mul
	case trace.OpDiv:
		return p.Lat.Div
	case trace.OpBranch, trace.OpCall, trace.OpRet:
		return p.Lat.Branch
	case trace.OpFPAdd:
		return p.Lat.FPAdd
	case trace.OpFPMul:
		return p.Lat.FPMul
	case trace.OpFPDiv:
		return p.Lat.FPDiv
	case trace.OpFMA:
		return p.Lat.FMA
	case trace.OpVInt:
		return p.Lat.VInt
	case trace.OpBroadcast:
		return p.Lat.Broadcast
	case trace.OpStore:
		return p.Lat.Store
	case trace.OpBarrier:
		return 1
	case trace.OpLoad:
		// Load latency comes from the cache hierarchy at execute time; the
		// static table charges the single issue cycle.
		return 1
	default:
		return 1
	}
}
