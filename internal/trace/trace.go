// Package trace defines the dynamic micro-operation (uop) model that feeds
// the timing simulator. The simulator is trace-driven and functional-first:
// a trace.Reader produces the committed (correct-path) uop stream, including
// data dependences, memory addresses and branch outcomes, and the timing
// model replays it through an out-of-order pipeline. This mirrors the
// functional-first organization of the Sniper simulator used in the paper.
package trace

// Op enumerates micro-operation kinds. The timing model assigns execution
// latencies and functional-unit ports per Op; the accounting layer uses Op to
// classify stall causes (loads for D-cache misses, long-latency arithmetic
// for the ALU component, vector floating-point for FLOPS stacks).
type Op uint8

const (
	// OpNop occupies a pipeline slot but no functional unit result.
	OpNop Op = iota
	// OpALU is single-cycle integer arithmetic/logic.
	OpALU
	// OpMul is multi-cycle integer multiply.
	OpMul
	// OpDiv is long-latency integer divide.
	OpDiv
	// OpBranch is a conditional or indirect branch.
	OpBranch
	// OpCall is a direct call (pushes a return address; uses the RAS).
	OpCall
	// OpRet is a return (pops the RAS).
	OpRet
	// OpLoad reads memory.
	OpLoad
	// OpStore writes memory.
	OpStore
	// OpFPAdd is a (vector) floating-point add/sub: one FLOP per lane.
	OpFPAdd
	// OpFPMul is a (vector) floating-point multiply: one FLOP per lane.
	OpFPMul
	// OpFPDiv is a long-latency floating-point divide.
	OpFPDiv
	// OpFMA is a fused multiply-add: two FLOPs per lane.
	OpFMA
	// OpVInt is an integer vector op; occupies a vector unit but is not VFP.
	OpVInt
	// OpBroadcast replicates a scalar across vector lanes. It performs no
	// FLOPs and executes on the load/shuffle ports (like x86 memory
	// broadcasts), not on the FMA-capable vector units.
	OpBroadcast
	// OpBarrier marks a thread synchronization point. When a core commits a
	// barrier uop it yields until all cores in the SMP harness reach the same
	// barrier; yielded cycles surface as the "Unsched" component.
	OpBarrier

	numOps
)

var opNames = [numOps]string{
	"nop", "alu", "mul", "div", "branch", "call", "ret", "load", "store",
	"fpadd", "fpmul", "fpdiv", "fma", "vint", "broadcast", "barrier",
}

// String returns a short lower-case mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// IsVFP reports whether the op is a vector floating-point operation that
// counts toward FLOPS (adds, multiplies and FMAs; divides excluded per the
// usual peak-FLOPS definition but still occupy the vector unit).
func (o Op) IsVFP() bool {
	return o == OpFPAdd || o == OpFPMul || o == OpFMA
}

// UsesVectorUnit reports whether the op occupies a vector (FMA-capable)
// functional unit. Broadcasts are excluded: like the memory-broadcast forms
// x86 kernels use (vbroadcastss zmm, [mem]), they execute on the load/shuffle
// ports, so a vector FP op waiting on one surfaces as a dependence stall
// rather than a lost vector-unit slot.
func (o Op) UsesVectorUnit() bool {
	return o == OpFPAdd || o == OpFPMul || o == OpFPDiv || o == OpFMA ||
		o == OpVInt
}

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsBranch reports whether the op redirects control flow.
func (o Op) IsBranch() bool { return o == OpBranch || o == OpCall || o == OpRet }

// FLOPsPerLane returns the number of floating-point operations one unmasked
// vector lane performs: 2 for FMA, 1 for add/mul, 0 otherwise.
func (o Op) FLOPsPerLane() int {
	// every op outside the three FP-arithmetic kinds performs zero FLOPs; the default covers that open set
	switch o {
	case OpFMA:
		return 2
	case OpFPAdd, OpFPMul:
		return 1
	default:
		return 0
	}
}

// NoProducer marks an absent source operand.
const NoProducer = ^uint64(0)

// Uop is one dynamic micro-operation. Source operands are expressed as the
// sequence numbers of the producing uops (register dataflow is pre-resolved
// by the trace generator, as a functional front-end would do).
type Uop struct {
	// Seq is the dynamic sequence number, dense over the correct path.
	Seq uint64
	// PC is the instruction address, used for I-cache and branch predictor
	// indexing.
	PC uint64
	// Op is the operation kind.
	Op Op
	// Src holds producer sequence numbers; NoProducer means no dependence.
	// A producer is an older uop of the same trace: the core caches each
	// waiting uop's readiness on that assumption.
	Src [3]uint64
	// Addr is the effective data address for loads and stores.
	Addr uint64
	// Taken is the actual outcome for branches.
	Taken bool
	// Target is the actual target address for taken branches.
	Target uint64
	// VecLanes is the vector width in lanes for vector ops (0 for scalar).
	VecLanes uint8
	// MaskedLanes is the number of lanes masked off (0 = fully unmasked).
	MaskedLanes uint8
	// MicrocodeCycles is the extra decode occupancy for microcoded
	// instructions (0 for regular single-uop decode).
	MicrocodeCycles uint8
	// WrongPath marks synthesized wrong-path uops injected after a
	// mispredicted branch; they never commit.
	WrongPath bool
}

// ActiveLanes returns the number of unmasked lanes (at least 0).
func (u *Uop) ActiveLanes() int {
	n := int(u.VecLanes) - int(u.MaskedLanes)
	if n < 0 {
		return 0
	}
	return n
}

// FLOPs returns the floating-point operations this uop performs.
func (u *Uop) FLOPs() int { return u.Op.FLOPsPerLane() * u.ActiveLanes() }

// Reader produces a stream of correct-path uops. Implementations must be
// deterministic for a given construction so experiments can re-simulate the
// identical instruction stream under idealized configurations.
type Reader interface {
	// Next returns the next uop. ok is false at end of trace.
	Next() (u Uop, ok bool)
}

// ErrReader is a Reader that can report why its stream ended. Next (and
// ReadBatch) signal end-of-stream in-band with ok=false / n=0; Err
// disambiguates a clean end of trace (nil) from a fault — a truncated file,
// a decode failure, an I/O error. The contract is sticky and deferred: once
// the stream has ended, Err must return the same value on every call, and a
// consumer that drains a reader to end-of-stream MUST check Err before
// trusting the data it read; each consumer's torn-file test holds it to
// that. Readers whose streams cannot fail (in-memory slices, synthetic
// generators) implement Err by returning nil, so the check is uniform
// across every source.
type ErrReader interface {
	Reader
	// Err returns the fault that ended the stream, or nil after a clean end
	// of trace (or while the stream is still live).
	Err() error
}

// ErrOf returns r's deferred stream error: r.Err() when r reports errors,
// nil for readers that predate (or don't need) the ErrReader contract.
// Wrapper readers delegate their own Err to ErrOf of the wrapped reader, so
// the error propagates through arbitrarily deep reader stacks.
func ErrOf(r Reader) error {
	if er, ok := r.(ErrReader); ok {
		return er.Err()
	}
	return nil
}

// BatchReader is a Reader that can also deliver uops in bulk, amortizing
// per-uop interface dispatch and internal bookkeeping across a batch. The
// uop stream delivered through ReadBatch must be bit-identical to the stream
// repeated Next calls would yield (the batch/scalar equivalence property;
// see TestBatchScalarEquivalence). Mixing Next and ReadBatch calls on the
// same reader is allowed: both consume the same underlying cursor.
type BatchReader interface {
	Reader
	// ReadBatch fills dst with the next uops of the stream and returns how
	// many were written. It returns 0 only at end of trace (for non-empty
	// dst); a short, non-zero count does not imply the stream has ended.
	ReadBatch(dst []Uop) int
}

// AsBatch adapts any Reader to the batched interface. Readers that already
// implement BatchReader are returned unchanged; everything else is wrapped
// in a generic scalar-to-batch shim that loops Next, so callers can be
// written against ReadBatch only.
func AsBatch(r Reader) BatchReader {
	if br, ok := r.(BatchReader); ok {
		return br
	}
	return &scalarBatch{r: r}
}

// scalarBatch is the generic scalar-to-batch adapter behind AsBatch.
type scalarBatch struct{ r Reader }

// Next implements Reader by delegating to the wrapped reader.
func (a *scalarBatch) Next() (Uop, bool) { return a.r.Next() }

// Err implements ErrReader by delegating to the wrapped reader.
func (a *scalarBatch) Err() error { return ErrOf(a.r) }

// ReadBatch implements BatchReader by looping the wrapped reader's Next.
func (a *scalarBatch) ReadBatch(dst []Uop) int {
	for i := range dst {
		u, ok := a.r.Next()
		if !ok {
			return i
		}
		dst[i] = u
	}
	return len(dst)
}

// Slice is an in-memory trace, convenient for tests.
type Slice struct {
	Uops []Uop
	pos  int
}

// NewSlice wraps uops in a Reader, assigning dense Seq numbers if they are
// all zero.
func NewSlice(uops []Uop) *Slice {
	needSeq := true
	for i := range uops {
		if uops[i].Seq != 0 {
			needSeq = false
			break
		}
	}
	if needSeq {
		for i := range uops {
			uops[i].Seq = uint64(i)
		}
	}
	return &Slice{Uops: uops}
}

// Next implements Reader.
func (s *Slice) Next() (Uop, bool) {
	if s.pos >= len(s.Uops) {
		return Uop{}, false
	}
	u := s.Uops[s.pos]
	s.pos++
	return u, true
}

// ReadBatch implements BatchReader with a single bulk copy.
func (s *Slice) ReadBatch(dst []Uop) int {
	n := copy(dst, s.Uops[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the slice so it can be replayed.
func (s *Slice) Reset() { s.pos = 0 }

// Err implements ErrReader: an in-memory trace cannot fail.
func (s *Slice) Err() error { return nil }

// Limit wraps a Reader and truncates it after n uops.
type Limit struct {
	R    Reader
	N    uint64
	seen uint64
}

// NewLimit returns a Reader that yields at most n uops from r.
func NewLimit(r Reader, n uint64) *Limit { return &Limit{R: r, N: n} }

// Next implements Reader.
func (l *Limit) Next() (Uop, bool) {
	if l.seen >= l.N {
		return Uop{}, false
	}
	u, ok := l.R.Next()
	if !ok {
		return Uop{}, false
	}
	l.seen++
	return u, true
}

// ReadBatch implements BatchReader: the batch is clamped to the remaining
// budget and delegated in bulk when the wrapped reader batches too.
func (l *Limit) ReadBatch(dst []Uop) int {
	if l.seen >= l.N {
		return 0
	}
	if rem := l.N - l.seen; uint64(len(dst)) > rem {
		dst = dst[:rem]
	}
	var n int
	if br, ok := l.R.(BatchReader); ok {
		n = br.ReadBatch(dst)
	} else {
		for n < len(dst) {
			u, ok := l.R.Next()
			if !ok {
				break
			}
			dst[n] = u
			n++
		}
	}
	l.seen += uint64(n)
	return n
}

// Err implements ErrReader. A limit that ends because its budget ran out is
// a clean end of stream; a wrapped reader that faulted before the budget was
// reached still surfaces its error.
func (l *Limit) Err() error { return ErrOf(l.R) }

// Counter wraps a Reader and counts uops and FLOPs as they stream by.
type Counter struct {
	R     Reader
	Uops  uint64
	FLOPs uint64
}

// Next implements Reader.
func (c *Counter) Next() (Uop, bool) {
	u, ok := c.R.Next()
	if ok {
		c.Uops++
		c.FLOPs += uint64(u.FLOPs())
	}
	return u, ok
}

// ReadBatch implements BatchReader, counting the whole batch in one pass.
func (c *Counter) ReadBatch(dst []Uop) int {
	var n int
	if br, ok := c.R.(BatchReader); ok {
		n = br.ReadBatch(dst)
	} else {
		for n < len(dst) {
			u, ok := c.R.Next()
			if !ok {
				break
			}
			dst[n] = u
			n++
		}
	}
	c.Uops += uint64(n)
	for i := 0; i < n; i++ {
		c.FLOPs += uint64(dst[i].FLOPs())
	}
	return n
}

// Err implements ErrReader by delegating to the wrapped reader.
func (c *Counter) Err() error { return ErrOf(c.R) }
