package workload

import "perfstacks/internal/trace"

// This file generates DeepBench-like HPC kernel traces: single-precision
// GEMM and convolution micro-kernels in the two code-generation styles the
// paper contrasts (§V-B):
//
//   - StyleKNL: the MKL JIT style on KNL — FMA instructions with a memory
//     operand, which split into a load uop plus an FMA uop that depends on
//     it. The FMA has to wait for its L1 D-cache access, which surfaces as
//     the FLOPS stack's large memory component on KNL.
//
//   - StyleSKX: the AVX-512 style on SKX — values are loaded and broadcast
//     into registers first, then several register-register FMAs consume the
//     broadcast. The FMAs depend on the broadcast instruction, which
//     surfaces as a larger dependence component instead.
//
// Problem sizes are sampled from the published DeepBench training and
// inference lists; they steer loop trip counts, masked remainder lanes and
// panel footprints.

// CodeStyle selects the kernel code-generation style.
type CodeStyle int

const (
	// StyleKNL emits FMA-with-memory-operand pairs (load + dependent FMA).
	StyleKNL CodeStyle = iota
	// StyleSKX emits load + broadcast + register-register FMA groups.
	StyleSKX
)

// String names the style.
func (s CodeStyle) String() string {
	if s == StyleKNL {
		return "knl-jit"
	}
	return "skx"
}

// GemmConfig is one DeepBench sgemm problem (M×N×K, single precision).
type GemmConfig struct {
	Name    string
	M, N, K int
	// Train marks training configurations (inference sizes are smaller and
	// have more remainder/masking work).
	Train bool
}

// GemmTrain returns a sample of the DeepBench sgemm training configurations.
func GemmTrain() []GemmConfig {
	return []GemmConfig{
		{"train-1760x128x1760", 1760, 128, 1760, true},
		{"train-1760x7000x1760", 1760, 7000, 1760, true},
		{"train-2048x128x2048", 2048, 128, 2048, true},
		{"train-2048x7000x2048", 2048, 7000, 2048, true},
		{"train-2560x64x2560", 2560, 64, 2560, true},
		{"train-2560x7000x2560", 2560, 7000, 2560, true},
		{"train-4096x128x4096", 4096, 128, 4096, true},
		{"train-4096x7000x4096", 4096, 7000, 4096, true},
		{"train-5124x9124x1760", 5124, 9124, 1760, true},
		{"train-35x8457x1760", 35, 8457, 1760, true},
		{"train-5124x9124x2048", 5124, 9124, 2048, true},
		{"train-35x8457x2048", 35, 8457, 2048, true},
		{"train-5124x9124x2560", 5124, 9124, 2560, true},
		{"train-35x8457x2560", 35, 8457, 2560, true},
		{"train-5124x9124x4096", 5124, 9124, 4096, true},
		{"train-35x8457x4096", 35, 8457, 4096, true},
		{"train-7680x16x2560", 7680, 16, 2560, true},
		{"train-7680x128x2560", 7680, 128, 2560, true},
		{"train-3072x128x1024", 3072, 128, 1024, true},
		{"train-3072x7435x1024", 3072, 7435, 1024, true},
	}
}

// GemmInference returns a sample of the DeepBench sgemm inference
// configurations (server batch sizes).
func GemmInference() []GemmConfig {
	return []GemmConfig{
		{"inf-5124x700x2048", 5124, 700, 2048, false},
		{"inf-35x700x2048", 35, 700, 2048, false},
		{"inf-5124x700x2560", 5124, 700, 2560, false},
		{"inf-35x700x2560", 35, 700, 2560, false},
		{"inf-5124x1500x2048", 5124, 1500, 2048, false},
		{"inf-35x1500x2048", 35, 1500, 2048, false},
		{"inf-5124x1500x2560", 5124, 1500, 2560, false},
		{"inf-35x1500x2560", 35, 1500, 2560, false},
		{"inf-7680x1x2560", 7680, 1, 2560, false},
		{"inf-7680x2x2560", 7680, 2, 2560, false},
		{"inf-7680x4x2560", 7680, 4, 2560, false},
		{"inf-3072x1x1024", 3072, 1, 1024, false},
		{"inf-3072x2x1024", 3072, 2, 1024, false},
		{"inf-3072x4x1024", 3072, 4, 1024, false},
		{"inf-512x6000x2816", 512, 6000, 2816, false},
		{"inf-1024x6000x2816", 1024, 6000, 2816, false},
	}
}

// Layout bases for kernel data (distinct from the synthetic SPEC regions).
const (
	gemmABase = 0x0000_0010_0000_0000
	gemmBBase = 0x0000_0011_0000_0000
	gemmCBase = 0x0000_0012_0000_0000
)

// Gemm streams the uops of a blocked sgemm micro-kernel; it implements
// trace.BatchReader and never ends (wrap with trace.Limit).
type Gemm struct {
	style CodeStyle
	cfg   GemmConfig
	lanes int
	accs  int // accumulator registers (independent FMA chains)
	seq   uint64

	// Per-k-step state machine.
	phase    int // position inside one k-step's uop recipe
	accIdx   int
	kLeft    int // k iterations left in the current panel pass
	maskRun  bool
	masked   uint8
	barrier  int // uops until next barrier (0 = disabled)
	barrierN int

	// Producers.
	loadA  uint64 // seq+1 of the A load
	bcast  uint64 // seq+1 of the broadcast
	loadB  [16]uint64
	accSeq [16]uint64

	// Address cursors (panel-resident, so the kernel is cache-friendly).
	aCur, bCur, cCur uint64
	aFoot, bFoot     uint64

	pcBase uint64
	pc     int // uop index within the kernel loop body (stable PCs)
	pcLen  int
}

// NewGemm builds a GEMM kernel trace generator. lanes is the machine vector
// width (16 for AVX-512); barrierEvery inserts a synchronization barrier
// every N uops (0 = never), modeling the OpenMP tile loop for SMP runs.
// seed is unused: a GEMM stream is a fixed function of the style, config,
// lanes and barrier interval, with no random draws. The parameter is kept
// so existing callers compile unchanged.
func NewGemm(style CodeStyle, cfg GemmConfig, lanes int, seed uint64, barrierEvery int) *Gemm {
	// Accumulator count: the KNL JIT uses deep accumulator files so the
	// FMA chain latency never binds (leaving the per-FMA memory operand as
	// the wait); the SKX kernel's 8 accumulators just cover the FMA latency,
	// so the broadcast dependence surfaces instead.
	accs := 6
	if style == StyleKNL {
		accs = 14
	}
	if cfg.N < 64 {
		accs = 4 // small batch: fewer independent columns to accumulate
	}
	if cfg.N <= 4 {
		accs = 2
	}
	// Panel footprints: the micro-kernel's B block and A slice are blocked
	// to be L1-resident (as MKL's packing does), so the memory component
	// reflects L1 load-to-use latency, not capacity misses.
	bFoot := uint64(cfg.K) * 64
	if bFoot > 16*1024 {
		bFoot = 16 * 1024
	}
	if bFoot < 4096 {
		bFoot = 4096
	}
	aFoot := uint64(8 * 1024)
	g := &Gemm{
		style:    style,
		cfg:      cfg,
		lanes:    lanes,
		accs:     accs,
		kLeft:    cfg.K,
		aFoot:    aFoot,
		bFoot:    bFoot,
		pcBase:   0x0000_0000_0060_0000,
		barrier:  barrierEvery,
		barrierN: barrierEvery,
	}
	// Masked remainder: the last lane group of each row block is partially
	// masked when N is not a multiple of the vector width.
	rem := cfg.N % lanes
	if rem != 0 {
		g.masked = uint8(lanes - rem)
	}
	return g
}

// Profile-style label.
func (g *Gemm) Name() string { return "sgemm-" + g.cfg.Name + "-" + g.style.String() }

// Next implements trace.Reader.
func (g *Gemm) Next() (trace.Uop, bool) {
	var u trace.Uop
	g.gen(&u)
	u.Seq = g.seq
	g.seq++
	return u, true
}

// ReadBatch implements trace.BatchReader: each uop is generated in place in
// dst, so no uop is copied on its way out. The stream is bit-identical to
// repeated Next calls, and the kernel never ends, so a full batch is always
// delivered.
func (g *Gemm) ReadBatch(dst []trace.Uop) int {
	for i := range dst {
		g.gen(&dst[i])
		dst[i].Seq = g.seq
		g.seq++
	}
	return len(dst)
}

// Err implements trace.ErrReader: a synthetic kernel cannot fail.
func (g *Gemm) Err() error { return nil }

// gen writes one uop of the kernel's steady-state loop into u, all but its
// Seq, which the caller assigns.
func (g *Gemm) gen(u *trace.Uop) {
	if g.barrierN > 0 {
		g.barrier--
		if g.barrier <= 0 {
			g.barrier = g.barrierN
			blank(u, g.pcBase-8)
			u.Op = trace.OpBarrier
			return
		}
	}
	switch g.style {
	case StyleKNL:
		g.genKNL(u)
	default:
		g.genSKX(u)
	}
}

// nextPC walks a stable PC sequence over the loop body so the I-cache and
// branch predictor see a real inner loop.
func (g *Gemm) nextPC(bodyLen int) uint64 {
	pc := g.pcBase + uint64(g.pc)*4
	g.pc++
	if g.pc >= bodyLen {
		g.pc = 0
	}
	return pc
}

// genKNL emits the KNL-JIT recipe per k-step:
//
//	load A; broadcast(A); { load B_i ; FMA_i(acc_i, bcast, loadB_i) } x accs; alu; branch
//
// Every FMA consumes the B load issued immediately before it — the
// FMA-with-memory-operand split.
func (g *Gemm) genKNL(u *trace.Uop) {
	body := 2 + 2*g.accs + 2
	blank(u, g.nextPC(body))
	switch {
	case g.phase == 0: // load A element
		u.Op = trace.OpLoad
		u.Addr = gemmABase + g.aCur
		g.aCur = (g.aCur + 4) % g.aFoot
		g.loadA = g.seq + 1
		g.phase++
	case g.phase == 1: // broadcast A
		u.Op = trace.OpBroadcast
		u.VecLanes = uint8(g.lanes)
		u.Src[0] = g.loadA - 1
		g.bcast = g.seq + 1
		g.phase++
	case g.phase < 2+2*g.accs: // load B / FMA pairs
		i := g.phase - 2
		acc := i / 2
		if i%2 == 0 {
			u.Op = trace.OpLoad
			u.Addr = gemmBBase + g.bCur
			g.bCur = (g.bCur + 64) % g.bFoot
			g.loadB[acc] = g.seq + 1
		} else {
			u.Op = trace.OpFMA
			u.VecLanes = uint8(g.lanes)
			u.MaskedLanes = g.maskForAcc(acc)
			u.Src[0] = g.loadB[acc] - 1 // memory operand: just-loaded B
			u.Src[1] = g.bcast - 1
			if g.accSeq[acc] != 0 {
				u.Src[2] = g.accSeq[acc] - 1
			}
			g.accSeq[acc] = g.seq + 1
		}
		g.phase++
	case g.phase == 2+2*g.accs: // pointer bump
		u.Op = trace.OpALU
		g.phase++
	default: // loop branch
		u.Op = trace.OpBranch
		u.Taken = true
		u.Target = g.pcBase
		g.phase = 0
		g.stepK()
	}
}

// genSKX emits the SKX recipe per k-step:
//
//	load A; broadcast(A); load B0; load B1; { FMA_i(acc_i, bcast, Breg) } x accs; alu; branch
//
// FMAs consume registers: they depend on the broadcast (and the two B-line
// loads), not on a per-FMA memory operand.
func (g *Gemm) genSKX(u *trace.Uop) {
	body := 4 + g.accs + 5
	blank(u, g.nextPC(body))
	switch {
	case g.phase == 0:
		u.Op = trace.OpLoad
		u.Addr = gemmABase + g.aCur
		g.aCur = (g.aCur + 4) % g.aFoot
		g.loadA = g.seq + 1
		g.phase++
	case g.phase == 1:
		u.Op = trace.OpBroadcast
		u.VecLanes = uint8(g.lanes)
		u.Src[0] = g.loadA - 1
		g.bcast = g.seq + 1
		g.phase++
	case g.phase == 2 || g.phase == 3:
		u.Op = trace.OpLoad
		u.Addr = gemmBBase + g.bCur
		g.bCur = (g.bCur + 64) % g.bFoot
		g.loadB[g.phase-2] = g.seq + 1
		g.phase++
	case g.phase < 4+g.accs:
		acc := g.phase - 4
		u.Op = trace.OpFMA
		u.VecLanes = uint8(g.lanes)
		u.MaskedLanes = g.maskForAcc(acc)
		u.Src[0] = g.bcast - 1
		u.Src[1] = g.loadB[acc%2] - 1
		if g.accSeq[acc] != 0 {
			u.Src[2] = g.accSeq[acc] - 1
		}
		g.accSeq[acc] = g.seq + 1
		g.phase++
	case g.phase < 4+g.accs+4:
		// Pointer bumps, index updates and prefetch address arithmetic: the
		// scalar overhead that keeps the SKX FMA fraction just under half of
		// the uop stream (so the FLOPS base stays below the CPI base).
		u.Op = trace.OpALU
		g.phase++
	default:
		u.Op = trace.OpBranch
		u.Taken = true
		u.Target = g.pcBase
		g.phase = 0
		g.stepK()
	}
}

func (g *Gemm) maskForAcc(acc int) uint8 {
	if g.masked != 0 && acc == g.accs-1 {
		return g.masked
	}
	return 0
}

// stepK advances the k loop; at panel end the C tile is written back and the
// accumulator chains restart.
func (g *Gemm) stepK() {
	g.kLeft--
	if g.kLeft <= 0 {
		g.kLeft = g.cfg.K
		for i := range g.accSeq {
			g.accSeq[i] = 0
		}
		g.cCur = (g.cCur + 64) % (1 << 20)
	}
}

// ConvConfig is one DeepBench convolution problem.
type ConvConfig struct {
	Name       string
	W, H, C, N int // input width/height/channels, batch
	K          int // output channels
	R, S       int // filter size
	Stride     int
}

// ConvPhase selects the training phase of a convolution benchmark.
type ConvPhase int

const (
	// ConvFwd is the forward pass.
	ConvFwd ConvPhase = iota
	// ConvBwdFilter is the backward filter-gradient pass.
	ConvBwdFilter
	// ConvBwdData is the backward data-gradient pass.
	ConvBwdData
)

// String names the phase as in the paper ("fwd", "bwd_f", "bwd_d").
func (p ConvPhase) String() string {
	switch p {
	case ConvFwd:
		return "fwd"
	case ConvBwdFilter:
		return "bwd_f"
	default:
		return "bwd_d"
	}
}

// ConvPhases lists the three training phases.
func ConvPhases() []ConvPhase { return []ConvPhase{ConvFwd, ConvBwdFilter, ConvBwdData} }

// ConvTrain returns a sample of the DeepBench convolution training
// configurations.
func ConvTrain() []ConvConfig {
	return []ConvConfig{
		{"700x161x1x4k32", 700, 161, 1, 4, 32, 5, 20, 2},
		{"341x79x32x4k32", 341, 79, 32, 4, 32, 5, 10, 2},
		{"480x48x1x16k16", 480, 48, 1, 16, 16, 3, 3, 1},
		{"240x24x16x16k32", 240, 24, 16, 16, 32, 3, 3, 1},
		{"120x12x32x16k64", 120, 12, 32, 16, 64, 3, 3, 1},
		{"108x108x3x8k64", 108, 108, 3, 8, 64, 3, 3, 2},
		{"54x54x64x8k64", 54, 54, 64, 8, 64, 3, 3, 1},
		{"27x27x128x8k128", 27, 27, 128, 8, 128, 3, 3, 1},
		{"14x14x128x8k256", 14, 14, 128, 8, 256, 3, 3, 1},
		{"7x7x256x8k512", 7, 7, 256, 8, 512, 3, 3, 1},
		{"224x224x3x16k64", 224, 224, 3, 16, 64, 3, 3, 1},
		{"112x112x64x16k128", 112, 112, 64, 16, 128, 3, 3, 1},
		{"56x56x128x16k256", 56, 56, 128, 16, 256, 3, 3, 1},
		{"7x7x512x16k512", 7, 7, 512, 16, 512, 3, 3, 1},
	}
}

// Conv streams the uops of a direct-convolution micro-kernel (im2col-style
// inner loops); it implements trace.BatchReader and never ends.
type Conv struct {
	style CodeStyle
	cfg   ConvConfig
	phase ConvPhase
	lanes int
	rng   splitmix64
	seq   uint64

	inner    *Gemm // the FMA core reuses the GEMM recipe state machine
	overhead int   // scalar/address uops to emit before the next FMA group
	ohPos    int
	ohLen    int
	masked   uint8

	// Packing phases: every packEvery FMA groups the kernel runs a long
	// scalar im2col/packing stretch with no vector FP work at all, which
	// drains VFP uops from the reservation stations and surfaces as the
	// FLOPS stack's frontend component even on deep-window cores.
	packEvery int
	packLen   int
	packPos   int
	groups    int
	packing   bool
	packStore uint64

	lastAddr uint64 // producer of the last address computation
	pcBase   uint64
	pc       int

	barrier  int
	barrierN int
}

// NewConv builds a convolution kernel trace generator. seed drives the
// overhead index loads, the only random draws of either DeepBench kernel.
func NewConv(style CodeStyle, cfg ConvConfig, phase ConvPhase, lanes int, seed uint64, barrierEvery int) *Conv {
	// The FMA core behaves like a small GEMM with K = C*R*S (the im2col
	// contraction length) and N = output pixels.
	inner := NewGemm(style, GemmConfig{
		Name: cfg.Name,
		M:    cfg.K,
		N:    cfg.W * cfg.H / (cfg.Stride * cfg.Stride),
		K:    cfg.C * cfg.R * cfg.S,
	}, lanes, 0, 0)

	// Scalar overhead per FMA group grows when the contraction is short
	// (small C*R*S means relatively more index arithmetic), and the
	// backward phases add transpose/scatter work.
	oh := 6 + 64/(cfg.C*cfg.R*cfg.S/8+1)
	switch phase {
	case ConvBwdFilter:
		oh += 4
	case ConvBwdData:
		oh += 6
	}
	var masked uint8
	if rem := (cfg.W / cfg.Stride) % lanes; rem != 0 {
		masked = uint8(lanes - rem)
	}
	// Convolution inner loads walk im2col windows rather than a packed
	// panel: widen the footprint past the L1 so a slice of the loads hits
	// in L2 instead (the source of the conv suites' memory component).
	inner.bFoot = 96 * 1024
	// Packing stretch length scales with the filter window (small C*R*S
	// means packing is a larger relative share).
	packLen := 160 + 2048/(cfg.C*cfg.R*cfg.S/8+1)
	packEvery := 12
	if phase != ConvFwd {
		packEvery = 9 // backward phases repack more often
	}
	return &Conv{
		style:     style,
		cfg:       cfg,
		phase:     phase,
		lanes:     lanes,
		rng:       newRNG(seed ^ 0xc04f),
		inner:     inner,
		ohLen:     oh,
		masked:    masked,
		packEvery: packEvery,
		packLen:   packLen,
		pcBase:    0x0000_0000_0070_0000,
		barrier:   barrierEvery,
		barrierN:  barrierEvery,
	}
}

// SetExtraOverhead lengthens the per-group scalar overhead; the SMP harness
// uses it to give threads slightly different paces so barrier waits (the
// Unsched component) appear, as remainder tiles do in real kernels.
func (c *Conv) SetExtraOverhead(n int) { c.ohLen += n }

// Name labels the generator.
func (c *Conv) Name() string {
	return "conv-" + c.phase.String() + "-" + c.cfg.Name + "-" + c.style.String()
}

// Next implements trace.Reader.
func (c *Conv) Next() (trace.Uop, bool) {
	var u trace.Uop
	c.gen(&u)
	u.Seq = c.seq
	c.seq++
	return u, true
}

// ReadBatch implements trace.BatchReader, generating each uop in place in
// dst as Gemm.ReadBatch does; the stream is bit-identical to repeated Next
// calls.
func (c *Conv) ReadBatch(dst []trace.Uop) int {
	for i := range dst {
		c.gen(&dst[i])
		dst[i].Seq = c.seq
		c.seq++
	}
	return len(dst)
}

// Err implements trace.ErrReader: a synthetic kernel cannot fail.
func (c *Conv) Err() error { return nil }

// gen writes one uop into u, all but its Seq, which the caller assigns.
func (c *Conv) gen(u *trace.Uop) {
	if c.barrierN > 0 {
		c.barrier--
		if c.barrier <= 0 {
			c.barrier = c.barrierN
			blank(u, c.pcBase-8)
			u.Op = trace.OpBarrier
			return
		}
	}
	// Long scalar packing stretch between FMA phases.
	if c.packing {
		blank(u, c.pcBase+0x800+uint64(c.packPos%64)*4)
		switch c.packPos % 4 {
		case 0:
			u.Op = trace.OpLoad
			u.Addr = gemmCBase + 0x100000 + (c.packStore%(128*1024))&^7
			c.packStore += 8
		case 2:
			u.Op = trace.OpStore
			u.Addr = gemmCBase + 0x200000 + (c.packStore%(128*1024))&^7
		case 3:
			u.Op = trace.OpBranch
			u.Taken = c.packPos != c.packLen-1
			u.Target = c.pcBase + 0x800
		default:
			u.Op = trace.OpALU
		}
		c.packPos++
		if c.packPos >= c.packLen {
			c.packing = false
			c.packPos = 0
		}
		return
	}

	// Interleave scalar overhead blocks with FMA groups: one overhead block
	// per inner-loop iteration of the FMA core.
	if c.ohPos < c.ohLen {
		blank(u, c.pcBase+uint64(c.ohPos)*4)
		switch r := c.ohPos % 8; {
		case r == 2:
			// Index load (offset tables / pointers).
			u.Op = trace.OpLoad
			u.Addr = gemmCBase + (c.rng.next()%(64*1024))&^7
			c.lastAddr = c.seq + 1
		case r == 5 && c.phase != ConvFwd:
			// Backward phases shuffle data through the vector unit.
			u.Op = trace.OpVInt
			u.VecLanes = uint8(c.lanes)
		case r == 7:
			u.Op = trace.OpBranch
			u.Taken = c.ohPos == c.ohLen-1
			u.Target = c.pcBase + 0x400
		default:
			u.Op = trace.OpALU
			if c.lastAddr != 0 && r == 3 {
				u.Src[0] = c.lastAddr - 1
			}
		}
		c.ohPos++
		return
	}
	// One uop of the FMA core, then back to overhead once a k-step wraps.
	// The inner generator's sequence counter is pinned to the outer one so
	// its producer references stay valid in the interleaved stream.
	c.inner.seq = c.seq
	c.inner.gen(u)
	if c.inner.phase == 0 { // the inner generator wrapped a k-step
		c.ohPos = 0
		c.groups++
		if c.packEvery > 0 && c.groups%c.packEvery == 0 {
			c.packing = true
		}
	}
}
