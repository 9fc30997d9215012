package workload

import (
	"testing"

	"perfstacks/internal/trace"
)

func gemmCfg() GemmConfig { return GemmConfig{Name: "t", M: 2048, N: 128, K: 2048} }

// TestGemmDeterministic: a GEMM stream is the same on every run and for
// every seed, which NewGemm does not use.
func TestGemmDeterministic(t *testing.T) {
	a := take(NewGemm(StyleKNL, gemmCfg(), 16, 1, 0), 2000)
	b := take(NewGemm(StyleKNL, gemmCfg(), 16, 987654, 0), 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("uop %d differs", i)
		}
	}
}

func TestGemmKNLPairsLoadWithFMA(t *testing.T) {
	uops := take(NewGemm(StyleKNL, gemmCfg(), 16, 1, 0), 4000)
	pairs := 0
	for i := 1; i < len(uops); i++ {
		if uops[i].Op == trace.OpFMA {
			// The KNL style splits FMA-with-memory-operand into a load
			// followed by the FMA that consumes it.
			if uops[i-1].Op != trace.OpLoad {
				t.Fatalf("FMA at %d not preceded by its load (got %v)", i, uops[i-1].Op)
			}
			if uops[i].Src[0] != uops[i-1].Seq {
				t.Fatalf("FMA at %d does not consume the preceding load", i)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no FMA pairs found")
	}
}

func TestGemmSKXFMAsConsumeBroadcast(t *testing.T) {
	uops := take(NewGemm(StyleSKX, gemmCfg(), 16, 1, 0), 4000)
	var lastBcast uint64
	checked := 0
	for _, u := range uops {
		switch u.Op {
		case trace.OpBroadcast:
			lastBcast = u.Seq
		case trace.OpFMA:
			if u.Src[0] != lastBcast {
				t.Fatalf("FMA %d does not consume broadcast %d (src %d)", u.Seq, lastBcast, u.Src[0])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no FMAs found")
	}
}

func TestGemmFMAFractionsDiffer(t *testing.T) {
	count := func(style CodeStyle) (fma, total int) {
		for _, u := range take(NewGemm(style, gemmCfg(), 16, 1, 0), 8000) {
			if u.Op == trace.OpFMA {
				fma++
			}
			total++
		}
		return
	}
	kf, kt := count(StyleKNL)
	sf, st := count(StyleSKX)
	knlFrac := float64(kf) / float64(kt)
	skxFrac := float64(sf) / float64(st)
	// Both styles keep the FMA fraction under one half (so the CPI base
	// exceeds the FLOPS base, the paper's Figure 4 invariant), and neither
	// kernel degenerates to scalar code.
	if knlFrac >= 0.5 || skxFrac >= 0.5 {
		t.Fatalf("FMA fractions %.3f/%.3f should stay below 0.5", knlFrac, skxFrac)
	}
	if knlFrac < 0.2 || skxFrac < 0.2 {
		t.Fatalf("FMA fractions %.3f/%.3f collapsed", knlFrac, skxFrac)
	}
}

func TestGemmMaskingOnRemainder(t *testing.T) {
	cfg := gemmCfg()
	cfg.N = 70 // 70 % 16 = 6: 10 lanes masked on the remainder group
	masked := 0
	for _, u := range take(NewGemm(StyleSKX, cfg, 16, 1, 0), 8000) {
		if u.Op == trace.OpFMA && u.MaskedLanes > 0 {
			masked++
			if u.MaskedLanes != 10 {
				t.Fatalf("masked lanes = %d, want 10", u.MaskedLanes)
			}
		}
	}
	if masked == 0 {
		t.Fatal("remainder masking never appeared")
	}
}

func TestGemmNoMaskWhenAligned(t *testing.T) {
	for _, u := range take(NewGemm(StyleSKX, gemmCfg(), 16, 1, 0), 4000) {
		if u.MaskedLanes != 0 {
			t.Fatal("N=128 is lane-aligned; no masking expected")
		}
	}
}

func TestGemmBarriers(t *testing.T) {
	n := 0
	for _, u := range take(NewGemm(StyleSKX, gemmCfg(), 16, 1, 500), 5000) {
		if u.Op == trace.OpBarrier {
			n++
		}
	}
	if n < 5 {
		t.Fatalf("saw %d barriers, want ~10", n)
	}
}

func TestGemmAccumulatorChains(t *testing.T) {
	// Each accumulator's FMA must link to the previous FMA of the same
	// accumulator (the loop-carried reduction).
	uops := take(NewGemm(StyleKNL, gemmCfg(), 16, 1, 0), 6000)
	bySeq := map[uint64]trace.Uop{}
	for _, u := range uops {
		bySeq[u.Seq] = u
	}
	linked := 0
	for _, u := range uops {
		if u.Op != trace.OpFMA || u.Src[2] == trace.NoProducer {
			continue
		}
		p, ok := bySeq[u.Src[2]]
		if ok && p.Op != trace.OpFMA {
			t.Fatalf("FMA %d accumulator source is %v, want FMA", u.Seq, p.Op)
		}
		linked++
	}
	if linked == 0 {
		t.Fatal("no accumulator chains found")
	}
}

func TestGemmConfigLists(t *testing.T) {
	if len(GemmTrain()) < 15 || len(GemmInference()) < 10 {
		t.Fatal("config samples too small")
	}
	seen := map[string]bool{}
	for _, c := range append(GemmTrain(), GemmInference()...) {
		if c.M <= 0 || c.N <= 0 || c.K <= 0 {
			t.Fatalf("config %s has degenerate dims", c.Name)
		}
		if seen[c.Name] {
			t.Fatalf("duplicate config %s", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestConvProducersValid(t *testing.T) {
	for _, phase := range ConvPhases() {
		c := NewConv(StyleSKX, ConvTrain()[0], phase, 16, 1, 0)
		for i, u := range take(c, 5000) {
			for _, s := range u.Src {
				if s != trace.NoProducer && s >= uint64(i) {
					t.Fatalf("%v: uop %d reads future producer %d", phase, i, s)
				}
			}
		}
	}
}

func TestConvPhasesDiffer(t *testing.T) {
	mix := func(phase ConvPhase) (vint, fma int) {
		for _, u := range take(NewConv(StyleSKX, ConvTrain()[6], phase, 16, 1, 0), 20000) {
			switch u.Op {
			case trace.OpVInt:
				vint++
			case trace.OpFMA:
				fma++
			}
		}
		return
	}
	fv, _ := mix(ConvFwd)
	bv, _ := mix(ConvBwdData)
	if bv <= fv {
		t.Fatalf("backward phases should shuffle more (vint fwd %d vs bwd_d %d)", fv, bv)
	}
}

func TestConvHasScalarOverheadAndFMAs(t *testing.T) {
	uops := take(NewConv(StyleKNL, ConvTrain()[6], ConvFwd, 16, 1, 0), 20000)
	var alus, fmas, loads int
	for _, u := range uops {
		switch u.Op {
		case trace.OpALU:
			alus++
		case trace.OpFMA:
			fmas++
		case trace.OpLoad:
			loads++
		}
	}
	if alus == 0 || fmas == 0 || loads == 0 {
		t.Fatalf("conv mix alus=%d fmas=%d loads=%d", alus, fmas, loads)
	}
	// Conv has a lower FMA fraction than pure GEMM.
	gf := 0
	guops := take(NewGemm(StyleKNL, gemmCfg(), 16, 1, 0), 20000)
	for _, u := range guops {
		if u.Op == trace.OpFMA {
			gf++
		}
	}
	if float64(fmas)/float64(len(uops)) >= float64(gf)/float64(len(guops)) {
		t.Fatal("conv should have a lower FMA fraction than sgemm")
	}
}

func TestConvPhaseString(t *testing.T) {
	if ConvFwd.String() != "fwd" || ConvBwdFilter.String() != "bwd_f" || ConvBwdData.String() != "bwd_d" {
		t.Fatal("phase names wrong")
	}
}

func TestConvNames(t *testing.T) {
	c := NewConv(StyleKNL, ConvTrain()[0], ConvFwd, 16, 1, 0)
	if c.Name() == "" {
		t.Fatal("conv should have a name")
	}
	g := NewGemm(StyleSKX, gemmCfg(), 16, 1, 0)
	if g.Name() == "" {
		t.Fatal("gemm should have a name")
	}
	if StyleKNL.String() == StyleSKX.String() {
		t.Fatal("styles should render distinctly")
	}
}

func TestConvExtraOverheadSlowsPace(t *testing.T) {
	base := NewConv(StyleSKX, ConvTrain()[6], ConvFwd, 16, 1, 0)
	slow := NewConv(StyleSKX, ConvTrain()[6], ConvFwd, 16, 1, 0)
	slow.SetExtraOverhead(3)
	countFMA := func(r trace.Reader) int {
		n := 0
		for _, u := range take(r, 10000) {
			if u.Op == trace.OpFMA {
				n++
			}
		}
		return n
	}
	if countFMA(slow) >= countFMA(base) {
		t.Fatal("extra overhead should dilute the FMA density")
	}
}
