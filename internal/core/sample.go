package core

// FECause identifies why the frontend cannot deliver (correct-path)
// instructions. The pipeline resolves its own state machine into one of
// these causes; the accountants map them onto stack components with the
// priority order of Table II (I-cache before branch prediction).
type FECause uint8

const (
	// FENone: the frontend is delivering normally.
	FENone FECause = iota
	// FEICache: fetch is waiting on an instruction cache / ITLB miss.
	FEICache
	// FEBpred: fetch is squashed/redirecting after a branch misprediction.
	FEBpred
	// FEMicrocode: decode is occupied by a microcoded instruction.
	FEMicrocode
	// FEUnsched: the core is yielded at a synchronization barrier.
	FEUnsched
	// FEDrained: the trace ended; the pipeline is draining.
	FEDrained

	// numFECauses bounds the set for tests; add new causes above it.
	numFECauses
)

// String returns a short cause name.
func (c FECause) String() string {
	switch c {
	case FENone:
		return "none"
	case FEICache:
		return "icache"
	case FEBpred:
		return "bpred"
	case FEMicrocode:
		return "microcode"
	case FEUnsched:
		return "unsched"
	case FEDrained:
		return "drained"
	}
	return "fe?"
}

// Component maps a frontend cause onto the CPI component it charges.
func (c FECause) Component() Component {
	switch c {
	case FEICache:
		return CompICache
	case FEBpred:
		return CompBpred
	case FEMicrocode:
		return CompMicrocode
	case FEUnsched:
		return CompUnsched
	case FENone, FEDrained:
		// No frontend event to blame: a quiet frontend or end-of-trace drain
		// charges the unattributed component.
		return CompOther
	default:
		return CompOther
	}
}

// ProdClass classifies the instruction blamed for a backend stall: the ROB
// head (dispatch/commit stages) or the producer of the first non-ready
// instruction (issue stage), per Table II lines 9-16.
type ProdClass uint8

const (
	// ProdNone: no blamable instruction (e.g. everything ready).
	ProdNone ProdClass = iota
	// ProdDCache: the blamed instruction is a load with an outstanding
	// D-cache (or DTLB) miss.
	ProdDCache
	// ProdLongLat: the blamed instruction has execution latency > 1 cycle.
	ProdLongLat
	// ProdDepend: the blamed instruction is single-cycle; the stall is due
	// to the dependence chain itself.
	ProdDepend

	// numProdClasses bounds the set for tests; add new classes above it.
	numProdClasses
)

// String returns a short class name.
func (p ProdClass) String() string {
	switch p {
	case ProdNone:
		return "none"
	case ProdDCache:
		return "dcache"
	case ProdLongLat:
		return "longlat"
	case ProdDepend:
		return "depend"
	}
	return "prod?"
}

// Component maps a producer class onto the CPI component it charges.
func (p ProdClass) Component() Component {
	switch p {
	case ProdDCache:
		return CompDCache
	case ProdLongLat:
		return CompALULat
	case ProdDepend:
		return CompDepend
	case ProdNone:
		// Nothing to blame: the stall is structural / unattributed.
		return CompOther
	default:
		return CompOther
	}
}

// CycleSample carries one simulated cycle's worth of per-stage signals from
// the pipeline to the accountants. All counts refer to micro-operations.
type CycleSample struct {
	// Cycle is the cycle number (monotonically increasing from 0).
	Cycle int64

	// Repeat is the number of identical consecutive cycles this sample
	// stands for; 0 and 1 both mean a single cycle. The pipeline emits
	// Repeat > 1 only for provably idle windows: every per-cycle count
	// (FetchN, DispatchN, IssueN, CommitN, wrong-path counts, VFP counts)
	// is zero, HasCommit and HasSquash are false, and every other field is
	// constant across the represented cycles — only Cycle varies (it names
	// the first cycle of the window). The per-cycle accounting math of
	// Tables II/III is piecewise-constant over such a window, so accountants
	// add Repeat x weight in one call with results identical to being
	// called Repeat times.
	Repeat int64

	// Unsched is true when the core is yielded at a barrier; all stages see
	// zero throughput and the cycle is charged to the Unsched component.
	Unsched bool

	// --- Fetch stage (for the optional fetch-stage stack) ---

	// FetchN is the number of correct-path uops fetched/decoded this cycle.
	FetchN int
	// FetchQueueFull is true when fetch stopped on a full decode queue
	// (back-pressure from dispatch).
	FetchQueueFull bool
	// FetchCause is the frontend's blocking reason after this cycle's fetch.
	FetchCause FECause

	// --- Dispatch stage ---

	// DispatchN is the number of correct-path uops dispatched this cycle.
	DispatchN int
	// DispatchWrongN is the number of wrong-path uops dispatched.
	DispatchWrongN int
	// FEEmpty is true when dispatch stopped because the frontend had no
	// more (correct-path) uops to deliver this cycle.
	FEEmpty bool
	// FECause is the frontend's blocking reason, valid when FEEmpty or
	// WrongPath is set.
	FECause FECause
	// WrongPath is true while an unresolved branch misprediction is in
	// flight, i.e. any uops the frontend is delivering are wrong-path.
	WrongPath bool
	// ROBFull / RSFull are true when dispatch stopped on a full structure.
	ROBFull bool
	RSFull  bool
	// ROBHeadClass classifies the current ROB head (valid when the ROB is
	// non-empty): what the oldest in-flight instruction is waiting on.
	ROBHeadClass ProdClass
	// ROBHeadNotDone is true when the ROB head has not finished executing.
	ROBHeadNotDone bool
	// ROBHeadMissDepth is the head load's miss depth (0 = L1 hit, 1 = L2,
	// 2 = L3, 3 = memory), feeding the per-level memory breakdown.
	ROBHeadMissDepth uint8
	// DispatchYoungest is the sequence number of the youngest
	// correct-path uop dispatched this cycle, or of the youngest wrong-path
	// one when only wrong-path uops went. On a cycle that dispatched
	// nothing it carries the last cycle's value, except that a squash
	// resets it to the youngest correct-path uop dispatched so far: it
	// never names a squashed uop. The speculative scheme attributes the
	// cycle to this uop, or to the next one (+1) on a dead cycle.
	DispatchYoungest uint64

	// --- Issue stage ---

	// IssueN is the number of correct-path uops issued to functional units.
	IssueN int
	// IssueWrongN is the number of wrong-path uops issued.
	IssueWrongN int
	// RSEmpty is true when issue stopped because no waiting uops remained.
	RSEmpty bool
	// FirstNonReadyClass classifies the producer that the oldest non-ready
	// reservation-station entry is waiting for (ProdNone when every waiting
	// entry was ready, i.e. the stall was structural).
	FirstNonReadyClass ProdClass
	// FirstNonReadyMissDepth is that producer's miss depth when it is a
	// missing load.
	FirstNonReadyMissDepth uint8
	// IssueBlockedPort is true when the oldest ready-but-unissued uop was
	// blocked by functional-unit/port availability this cycle.
	IssueBlockedPort bool
	// IssueBlockedMemOrder is true when it was a load blocked behind an
	// older in-flight store to the same line (memory-order conflict).
	IssueBlockedMemOrder bool
	// IssueYoungest is DispatchYoungest's issue-stage counterpart: the
	// youngest correct-path uop issued this cycle, the youngest wrong-path
	// one when only wrong-path uops issued, and otherwise the last value.
	// A squash resets it to its value in the last cycle that issued a
	// correct-path uop (issue is out of order, so that need not be the
	// youngest correct-path uop issued so far).
	IssueYoungest uint64

	// --- Commit stage ---

	// CommitN is the number of uops committed (always correct-path).
	CommitN int
	// ROBEmpty is true when commit stopped because the ROB drained.
	ROBEmpty bool

	// --- Retirement / squash events (for speculative counters) ---

	// HasCommit / CommitThrough: uops with Seq <= CommitThrough committed.
	HasCommit     bool
	CommitThrough uint64
	// HasSquash / SquashAfter: uops with Seq > SquashAfter were squashed
	// this cycle by a resolved misprediction.
	HasSquash   bool
	SquashAfter uint64

	// --- Vector floating-point issue signals (FLOPS stacks, Table III) ---

	// VFPIssued is n: the number of VFP uops issued this cycle.
	VFPIssued int
	// VFPActiveLanes is Σ m_i: total unmasked lanes across issued VFP uops.
	VFPActiveLanes int
	// VFPFlops is Σ a_i·m_i: total FLOPs performed by issued VFP uops.
	VFPFlops int
	// VFPInRS is true when at least one VFP uop is waiting in the RS.
	VFPInRS bool
	// VUNonVFP is the number of vector-unit slots consumed by non-VFP uops
	// (integer vector operations, broadcasts) this cycle.
	VUNonVFP int
	// OldestVFPClass classifies the producer the oldest non-ready VFP uop
	// waits for; OldestVFPIsLoad distinguishes the memory component.
	OldestVFPClass ProdClass
	// OldestVFPWaitsLoad is true when that producer is a memory load.
	OldestVFPWaitsLoad bool
}
