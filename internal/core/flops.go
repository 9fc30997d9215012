package core

import (
	"fmt"
	"strings"

	"perfstacks/internal/invariant"
)

// FLOPSStack is the issue-stage floating-point throughput stack of Table III.
// Components are accumulated in cycle units (Σ Comp = Cycles); ToFLOPS (Eq. 1)
// rescales the stack so its height is the peak FLOP rate and the base
// component is the achieved FLOP rate.
type FLOPSStack struct {
	// Comp holds per-component cycle counts.
	Comp [NumFLOPSComponents]float64
	// Cycles is the total simulated cycles.
	Cycles int64
	// K is the number of vector floating-point units.
	K int
	// V is the vector width in lanes.
	V int
	// FLOPs is the total floating-point operations issued (correct path).
	FLOPs uint64
}

// MaxOpsPerCycle returns the peak FLOPs per cycle: 2·k·v (the 2 reflects the
// two operations of an FMA).
func (f *FLOPSStack) MaxOpsPerCycle() float64 { return 2 * float64(f.K) * float64(f.V) }

// Normalized returns a component's fraction of total cycles.
func (f *FLOPSStack) Normalized(c FLOPSComponent) float64 {
	if f.Cycles == 0 {
		return 0
	}
	return f.Comp[c] / float64(f.Cycles)
}

// ToFLOPS applies Equation 1: the component scaled to operations/second for
// a core running at freq Hz. The stack then has height freq·M with the base
// component equal to the achieved FLOPS.
func (f *FLOPSStack) ToFLOPS(c FLOPSComponent, freq float64) float64 {
	return f.Normalized(c) * freq * f.MaxOpsPerCycle()
}

// AchievedFLOPS returns the base component in operations/second (Eq. 1).
func (f *FLOPSStack) AchievedFLOPS(freq float64) float64 { return f.ToFLOPS(FBase, freq) }

// FrontendTotal returns the sum of the three frontend subcomponents (the
// paper's undivided "frontend" component).
func (f *FLOPSStack) FrontendTotal() float64 {
	return f.Comp[FFrontendNoVFP] + f.Comp[FFrontendICache] + f.Comp[FFrontendBpred]
}

// Sum returns Σ components in cycles (should equal Cycles).
func (f *FLOPSStack) Sum() float64 {
	var t float64
	for _, v := range f.Comp {
		t += v
	}
	return t
}

// String renders a one-line summary.
func (f *FLOPSStack) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FLOPS eff=%.1f%% [", 100*f.Normalized(FBase))
	first := true
	for c := FLOPSComponent(0); c < NumFLOPSComponents; c++ {
		v := f.Normalized(c)
		if v < 0.0005 && c != FBase {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		first = false
		fmt.Fprintf(&b, "%s=%.1f%%", c, 100*v)
	}
	b.WriteString("]")
	return b.String()
}

// AverageFLOPSStacks component-wise averages stacks from homogeneous threads
// (the paper adds FLOPS stacks by their components; averaging keeps the
// per-core normalization and is equivalent up to the constant thread count).
func AverageFLOPSStacks(stacks []FLOPSStack) FLOPSStack {
	if len(stacks) == 0 {
		return FLOPSStack{}
	}
	out := FLOPSStack{K: stacks[0].K, V: stacks[0].V}
	var cyc, flops float64
	for i := range stacks {
		for c := range out.Comp {
			out.Comp[c] += stacks[i].Comp[c]
		}
		cyc += float64(stacks[i].Cycles)
		flops += float64(stacks[i].FLOPs)
	}
	n := float64(len(stacks))
	for c := range out.Comp {
		out.Comp[c] /= n
	}
	out.Cycles = int64(cyc/n + 0.5)
	out.FLOPs = uint64(flops/n + 0.5)
	return out
}

// FLOPSAccountant implements the Table III per-cycle accounting algorithm at
// the issue stage.
type FLOPSAccountant struct {
	k, v   int
	stack  FLOPSStack
	maxOps float64
	dbg    debugTick
}

// NewFLOPSAccountant builds an accountant for a core with k vector FP units
// of v lanes each.
func NewFLOPSAccountant(k, v int) *FLOPSAccountant {
	if k < 1 {
		k = 1
	}
	if v < 1 {
		v = 1
	}
	return &FLOPSAccountant{k: k, v: v, maxOps: 2 * float64(k) * float64(v)}
}

// Cycle consumes one cycle's sample. It uses the VFP issue signals plus the
// frontend state shared with the CPI accountants.
//
// Table III algebra, applied per issued uop i with a_i ops/lane and m_i
// active lanes: base gets a_i·m_i/(2kv); non-FMA gets (2−a_i)·m_i/(2kv);
// mask gets (v−m_i)/(kv). Those three sum to 1/k per issued uop, so together
// with the (k−n)/k unissued-slot classification every cycle accounts to
// exactly 1.
func (a *FLOPSAccountant) Cycle(s *CycleSample) {
	if invariant.Enabled {
		debugCheckSample(s)
		if a.dbg.due(a.stack.Cycles) {
			a.debugConserve()
		}
	}
	if s.Repeat > 1 {
		a.cycleIdle(s)
		return
	}
	a.stack.Cycles++
	a.stack.FLOPs += uint64(s.VFPFlops)

	if s.Unsched {
		a.stack.Comp[FUnsched]++
		return
	}
	if invariant.Enabled {
		a.debugCheckVFP(s)
	}

	kf := float64(a.k)
	vf := float64(a.v)
	n := s.VFPIssued
	flops := float64(s.VFPFlops)
	lanes := float64(s.VFPActiveLanes)

	// Issued-uop decomposition (lines 1-7 of Table III).
	base := flops / a.maxOps
	nonFMA := (2*lanes - flops) / a.maxOps
	mask := (float64(n)*vf - lanes) / (kf * vf)
	a.stack.Comp[FBase] += base
	if nonFMA > 0 {
		a.stack.Comp[FNonFMA] += nonFMA
	}
	if mask > 0 {
		a.stack.Comp[FMask] += mask
	}

	// Unissued-slot classification (lines 8-18).
	if n >= a.k {
		return
	}
	rem := (kf - float64(n)) / kf
	a.stack.Comp[a.unissuedBucket(s)] += rem
}

// unissuedBucket classifies the cycle's unissued VFP slots (Table III lines
// 8-18): which component absorbs the (k-n)/k remainder.
func (a *FLOPSAccountant) unissuedBucket(s *CycleSample) FLOPSComponent {
	switch {
	case !s.VFPInRS:
		// No VFP instructions available to issue.
		if s.RSEmpty {
			switch s.FECause {
			case FEICache:
				return FFrontendICache
			case FEBpred:
				return FFrontendBpred
			case FENone, FEMicrocode, FEDrained:
				return FFrontendNoVFP
			case FEUnsched:
				// Unreachable: Unsched cycles are charged to FUnsched before
				// classification. Kept for exhaustiveness.
				return FOther
			default:
				return FOther
			}
		}
		return FFrontendNoVFP
	case s.VUNonVFP > 0:
		// A vector unit executed non-VFP work this cycle.
		return FNonVFP
	case s.OldestVFPWaitsLoad:
		return FMem
	case s.OldestVFPClass != ProdNone:
		return FDepend
	default:
		// VFP uops were ready but structurally blocked.
		return FOther
	}
}

// cycleIdle accounts an idle-window sample: no VFP issue activity for
// s.Repeat cycles, so the base/non-FMA/mask terms are all zero and each
// cycle's full slot remainder (exactly 1.0 with n = 0) lands in a single
// bucket that is constant across the window.
func (a *FLOPSAccountant) cycleIdle(s *CycleSample) {
	r := s.Repeat
	a.stack.Cycles += r
	if s.Unsched {
		addWholeCycles(&a.stack.Comp[FUnsched], r)
		return
	}
	addWholeCycles(&a.stack.Comp[a.unissuedBucket(s)], r)
}

// Finalize returns the measured FLOPS stack.
func (a *FLOPSAccountant) Finalize() FLOPSStack {
	if invariant.Enabled {
		a.debugConserve()
	}
	out := a.stack
	out.K = a.k
	out.V = a.v
	return out
}
