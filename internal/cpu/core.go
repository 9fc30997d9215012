package cpu

import (
	"context"
	"math"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/core"
	"perfstacks/internal/invariant"
	"perfstacks/internal/trace"
)

// Accountant consumes one CycleSample per simulated cycle. Both the CPI
// stack and FLOPS stack accountants implement it.
type Accountant interface {
	Cycle(*core.CycleSample)
}

// Stats aggregates run statistics beyond what the accountants measure.
type Stats struct {
	Cycles        int64
	Committed     uint64
	Loads         uint64
	Stores        uint64
	Branches      uint64
	Mispredicts   uint64
	WrongPathUops uint64
	SquashedUops  uint64
	VFPUops       uint64
	FLOPs         uint64
	BarrierWaits  int64
	// ICacheStallCycles is the total fetch stall time due to I-cache misses.
	ICacheStallCycles int64
}

// IPC returns committed uops per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// CPI returns cycles per committed uop.
func (s Stats) CPI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Committed)
}

// Core is one out-of-order core instance bound to a trace, a cache
// hierarchy and a branch predictor.
type Core struct {
	p    Params
	fe   *frontend
	rob  *rob
	sb   *scoreboard
	hier *cache.Hierarchy

	// rs holds the dispatched, unissued uops in age order. rsVFP counts
	// its VFP entries.
	rs    []rsEntry
	rsVFP int

	// Wakeup state of each uop in rs, indexed by ROB slot. readyAt is
	// notReady while the uop waits on an unissued producer, linked through
	// waitNext into that producer's scoreboard wait list; once every
	// producer has issued it is the latest producer completion time. A
	// producer's completion time is fixed when it issues, so the cached
	// value stays exact until the uop leaves the RS.
	readyAt  []int64
	waitNext []int32

	// pendingStores tracks in-flight stores for memory disambiguation:
	// a load may not issue while an older store to the same line is not
	// complete. Entries are appended at dispatch and pruned lazily.
	pendingStores []pendingStore

	divBusyUntil []int64 // non-pipelined divide units (the IntMulDiv pool)

	now      int64
	finished bool
	sample   core.CycleSample
	accts    []Accountant
	// lastDisp/lastIssue seed each sample's DispatchYoungest/IssueYoungest:
	// the youngest uop the stage processed in its last active cycle,
	// correct-path whenever a correct-path uop went that cycle.
	// lastCPDisp/lastCPIssue are the same for the last cycle in which a
	// correct-path uop went; a squash restores lastDisp/lastIssue to them,
	// so no squashed wrong-path seq outlives the wrong path.
	lastDisp    uint64
	lastIssue   uint64
	lastCPDisp  uint64
	lastCPIssue uint64

	hasResolve bool
	resolveAt  int64
	resolveSeq uint64

	// Barrier / SMP state.
	yielded         bool
	barrierReleased bool
	barrierWaiter   func(*Core)
	// BarrierCount is the number of barriers this core has reached.
	BarrierCount int

	// warmupLeft suppresses accounting samples for the first N committed
	// uops (cache/predictor warm-up, mirroring the paper's fast-forward).
	warmupLeft uint64

	// noSkip disables event-driven idle-window skipping (the debugging
	// escape hatch behind sim.Options.NoSkip). Skipping is also disabled
	// automatically while a barrier waiter is installed: SMP harnesses step
	// cores in lockstep against a shared uncore, and a core that jumps
	// ahead would interleave its shared-cache accesses out of simulated-time
	// order with its siblings'.
	noSkip bool

	// ctx, when non-nil, lets Run stop cooperatively mid-trace. The check
	// is periodic (every cancelCheckMask+1 steps) and lives in Run's loop,
	// not in Step, so the per-cycle hot path is untouched.
	ctx      context.Context
	canceled bool

	// Stats accumulates run statistics.
	Stats Stats
}

// New builds a core. The trace reader supplies correct-path uops; the
// hierarchy and predictor may be shared across runs but must be Reset by the
// caller between runs.
func New(p Params, hier *cache.Hierarchy, pred bpred.Predictor, tr trace.Reader) *Core {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	nDiv := p.IntMulDivs
	if nDiv < 1 {
		nDiv = 1
	}
	r := newROB(p.ROBSize)
	return &Core{
		p:            p,
		fe:           newFrontend(&p, tr, hier, pred),
		rob:          r,
		sb:           newScoreboard(p.ROBSize),
		hier:         hier,
		rs:           make([]rsEntry, 0, p.RSSize),
		readyAt:      make([]int64, len(r.u)),
		waitNext:     make([]int32, len(r.u)),
		divBusyUntil: make([]int64, nDiv),
	}
}

// Params returns the core configuration.
func (c *Core) Params() Params { return c.p }

// Attach registers accountants that receive one sample per cycle.
func (c *Core) Attach(accts ...Accountant) { c.accts = append(c.accts, accts...) }

// SetWarmup suppresses accounting (and the cycle/instruction counters the
// accountants see) until n uops have committed, mirroring the paper's
// fast-forward phase that warms caches and predictors before detailed
// measurement.
//
// The warm-up boundary is sample-granular: the cycle whose commits cross the
// remaining warm-up count is dropped whole — its entire sample, including the
// commits beyond the boundary, is suppressed — and accounting starts with the
// next sample. Idle-window skipping preserves this exactly: skipped windows
// commit nothing, so they can never straddle the boundary.
func (c *Core) SetWarmup(n uint64) { c.warmupLeft = n }

// SetNoSkip disables (true) or re-enables (false) event-driven idle-window
// skipping. With skipping disabled the core iterates every cycle of every
// stall window — bit-identical results, useful for debugging the skip logic
// and for measuring its speedup.
func (c *Core) SetNoSkip(v bool) { c.noSkip = v }

// Warm reports whether warm-up has completed.
func (c *Core) Warm() bool { return c.warmupLeft == 0 }

// Now returns the current cycle.
func (c *Core) Now() int64 { return c.now }

// Finished reports whether the trace has fully committed.
func (c *Core) Finished() bool { return c.finished }

// SetBarrierWaiter installs the SMP harness callback invoked when the core
// reaches a barrier uop at commit. Without a waiter, barriers commit like
// ordinary uops.
func (c *Core) SetBarrierWaiter(fn func(*Core)) { c.barrierWaiter = fn }

// ReleaseBarrier lets a yielded core proceed past its barrier.
func (c *Core) ReleaseBarrier() {
	c.yielded = false
	c.barrierReleased = true
}

// Yielded reports whether the core is waiting at a barrier.
func (c *Core) Yielded() bool { return c.yielded }

// Step advances the core by at least one cycle. When the cycle turns out to
// be idle — no stage made progress and every pending event's timestamp is
// known — Step additionally jumps the clock over the provably-dead remainder
// of the stall window, emitting one batched sample (CycleSample.Repeat) in
// place of the per-cycle ones. It returns false once the core has finished
// (trace drained and pipeline empty).
//
//simlint:hotpath
func (c *Core) Step() bool {
	if c.finished {
		return false
	}

	qLen0 := c.fe.qLen
	s := &c.sample
	*s = core.CycleSample{
		Cycle:            c.now,
		DispatchYoungest: c.lastDisp,
		IssueYoungest:    c.lastIssue,
	}

	if c.yielded {
		s.Unsched = true
		s.FECause = core.FEUnsched
		s.RSEmpty = len(c.rs) == 0
		s.ROBEmpty = c.rob.empty()
		s.FEEmpty = true
		c.Stats.BarrierWaits++
		c.emit(s)
		c.now++
		c.Stats.Cycles = c.now
		return true
	}

	// 1. Branch resolution: squash the wrong path and redirect fetch.
	if c.hasResolve && c.now >= c.resolveAt {
		c.squashWrongPath()
		// The sample was seeded before the squash restored the youngest
		// fields; a squashed seq must not take this cycle's attribution.
		s.DispatchYoungest = c.lastDisp
		s.IssueYoungest = c.lastIssue
		s.HasSquash = true
		s.SquashAfter = c.resolveSeq
		c.fe.resolve(c.now)
		c.hasResolve = false
	}

	// 2. Commit stage.
	c.commit(s)

	// 3. Issue stage.
	c.issue(s)

	// 4. Dispatch stage.
	c.dispatch(s)

	// 5. Fetch/decode refills the queue for next cycle.
	if !c.yielded {
		n, qFull := c.fe.fill(c.now)
		s.FetchN = n
		s.FetchQueueFull = qFull
		s.FetchCause = c.fe.cause()
	}

	c.emit(s)
	c.now++
	c.Stats.Cycles = c.now

	if c.fe.exhausted() && c.rob.empty() {
		c.finished = true
		// Fetch-stall statistics are folded in once at the end of the run
		// rather than being re-assigned every cycle.
		c.Stats.ICacheStallCycles = c.fe.icacheStalls
		return false
	}

	// Event-driven stall skipping: if this cycle was provably idle — no
	// stage made progress, nothing was squashed, and the frontend neither
	// delivered nor synthesized uops — then every cycle until the next
	// pending event is identical to it. Jump the clock there and emit one
	// batched sample for the window.
	if !c.noSkip && c.barrierWaiter == nil &&
		s.CommitN == 0 && s.IssueN == 0 && s.IssueWrongN == 0 &&
		s.DispatchN == 0 && s.DispatchWrongN == 0 && s.FetchN == 0 &&
		!s.HasSquash && c.fe.qLen == qLen0 {
		if next := c.nextEvent(); next > c.now && next != math.MaxInt64 {
			s.Cycle = c.now
			s.Repeat = next - c.now
			// dispatch() sampled the frontend cause before fill ran this
			// cycle; the window's cycles observe the post-fill state (e.g. a
			// redirect penalty expiring straight into an I-cache miss), so
			// refresh the frontend-derived fields before emitting.
			s.FECause = c.fe.cause()
			s.WrongPath = c.fe.wrongPath
			c.emit(s)
			c.now = next
			c.Stats.Cycles = c.now
		}
	}
	return true
}

// nextEvent returns the earliest cycle >= c.now at which the idle pipeline's
// state can change, or math.MaxInt64 when no timed event is pending. It is
// only meaningful right after an idle cycle: nothing dispatched, issued,
// committed or fetched, so the only state transitions left are timed ones —
// a pending branch resolution, the frontend's stall expiring (I-cache miss
// return, redirect penalty, microcode occupancy), the ROB head completing,
// an in-flight producer of a waiting RS entry completing (which can both
// ready the consumer and change the blamed-producer classification), a
// non-pipelined divider freeing up, or an in-flight store completing and
// releasing a memory-order-blocked load.
func (c *Core) nextEvent() int64 {
	next := int64(math.MaxInt64)
	consider := func(t int64) { //simlint:partial non-escaping closure, stack-allocated; BenchmarkSimulatorThroughput holds 0 allocs/op
		if t >= c.now && t < next {
			next = t
		}
	}

	if c.hasResolve {
		consider(c.resolveAt)
	}
	consider(c.fe.stallUntil)
	if h := c.rob.headSlot(); h >= 0 && c.rob.flags[h]&robIssued != 0 {
		consider(c.rob.doneAt[h])
	}
	hasDiv := false
	for _, e := range c.rs {
		if e.op == trace.OpDiv {
			hasDiv = true
		}
		for _, src := range c.rob.u[e.slot].Src {
			if src == trace.NoProducer {
				continue
			}
			// Producers that have not issued cannot complete before some
			// other event fires first; issued ones complete at a known time.
			if t, ok := c.sb.readyAt(src); ok {
				consider(t)
			}
		}
	}
	if hasDiv {
		// A waiting divide can become issuable when a divider frees up.
		for _, t := range c.divBusyUntil {
			consider(t)
		}
	}
	for i := range c.pendingStores {
		if c.pendingStores[i].issued {
			consider(c.pendingStores[i].doneAt)
		}
	}
	return next
}

func (c *Core) emit(s *core.CycleSample) {
	if c.warmupLeft > 0 {
		n := uint64(s.CommitN)
		if n >= c.warmupLeft {
			c.warmupLeft = 0
		} else {
			c.warmupLeft -= n
		}
		return
	}
	for _, a := range c.accts {
		a.Cycle(s)
	}
}

// commit retires up to CommitWidth finished uops in order.
func (c *Core) commit(s *core.CycleSample) {
	for n := 0; n < c.p.CommitWidth; n++ {
		h := c.rob.headSlot()
		if h < 0 {
			break
		}
		if !c.rob.doneBy(h, c.now) {
			break
		}
		if c.rob.u[h].Op == trace.OpBarrier && c.barrierWaiter != nil && !c.barrierReleased {
			c.yielded = true
			c.BarrierCount++
			c.barrierWaiter(c)
			break
		}
		if c.rob.u[h].Op == trace.OpBarrier {
			c.barrierReleased = false
		}
		seq := c.rob.u[h].Seq
		c.sb.retire(seq)
		c.rob.pop()
		c.Stats.Committed++
		s.CommitN++
		s.HasCommit = true
		s.CommitThrough = seq
	}

	s.ROBEmpty = c.rob.empty()
	if h := c.rob.headSlot(); h >= 0 {
		s.ROBHeadNotDone = !c.rob.doneBy(h, c.now)
		s.ROBHeadClass = c.rob.classify(h)
		s.ROBHeadMissDepth = c.rob.depth[h]
	}
}

// pendingStore is one in-flight store hazard.
type pendingStore struct {
	seq    uint64
	line   uint64
	doneAt int64 // math.MaxInt64 until issued
	issued bool
}

// portsInUse tracks per-cycle functional unit availability.
type portsInUse struct {
	alu, muldiv, load, store, vfp int
}

// rsEntry is one reservation-station entry: the ROB slot of a dispatched,
// unissued uop and its op, kept beside the slot so the select walk reads one
// dense array. The entry's readiness lives in Core.readyAt.
type rsEntry struct {
	slot int32
	op   trace.Op
}

// notReady is Core.readyAt's mark for a uop waiting on an unissued producer.
const notReady = int64(math.MaxInt64)

// issue selects ready uops oldest-first and issues them to available ports,
// and gathers the issue-stage and VFP accounting signals. Readiness comes
// from the wakeup state (await/wake), so an entry costs one compare; blame
// is computed only where a signal consumes it: for the first non-ready
// entry (Table II issue column) and the oldest waiting VFP entry (Table
// III). Once the issue width is spent the rest of the RS stays as it is.
func (c *Core) issue(s *core.CycleSample) {
	if invariant.Enabled {
		c.checkWakeup()
	}
	var ref fullScan
	var ports portsInUse
	issued := 0
	rs, readyAt, now, width := c.rs, c.readyAt, c.now, c.p.IssueWidth
	kept := 0
	foundNonReady := false
	var oldestVFPSeen bool

	i := 0
	for ; i < len(rs) && issued < width; i++ {
		e := rs[i]
		slot := int(e.slot)
		if invariant.Enabled {
			ref.scan(c, slot)
		}
		cls, isLoad := core.ProdNone, false
		if readyAt[slot] > now {
			// Not ready: record the first non-ready entry's producer class
			// and, through noteWaiting, the oldest waiting VFP uop's.
			if !foundNonReady || (!oldestVFPSeen && e.op.IsVFP()) {
				var depth uint8
				cls, isLoad, depth = c.blame(slot)
				if !foundNonReady {
					foundNonReady = true
					s.FirstNonReadyClass = cls
					s.FirstNonReadyMissDepth = depth
				}
			}
		} else if c.p.MemDisambiguation && e.op == trace.OpLoad && c.memConflict(slot) {
			// Load blocked behind an older in-flight store to its line: the
			// issue-only "memory address conflict" structural stall.
			if !s.IssueBlockedPort && !s.IssueBlockedMemOrder {
				s.IssueBlockedMemOrder = true
			}
		} else if !c.portFree(&ports, e.op) {
			// Ready but structurally blocked: stays in the RS; if it is the
			// oldest waiting entry the stall is structural (ProdNone).
			if !s.IssueBlockedPort && !s.IssueBlockedMemOrder {
				s.IssueBlockedPort = true
			}
		} else {
			c.execute(s, slot)
			if e.op.IsVFP() {
				c.rsVFP--
			}
			issued++
			continue
		}
		c.noteWaiting(s, e.op, &oldestVFPSeen, cls, isLoad)
		if invariant.Enabled {
			ref.kept(e.op)
		}
		rs[kept] = e
		kept++
	}

	if i < len(rs) {
		// Issue width is spent and the tail stays unexamined. Of its
		// signals only the oldest waiting VFP uop's can still be open: it is
		// then the tail's first VFP entry, waiting structurally.
		if !oldestVFPSeen && c.rsVFP > 0 {
			for _, e := range rs[i:] {
				if e.op.IsVFP() {
					c.noteWaiting(s, e.op, &oldestVFPSeen, core.ProdNone, false)
					break
				}
			}
		}
		if kept < i {
			copy(rs[kept:], rs[i:])
		}
		kept += len(rs) - i
	}
	c.rs = rs[:kept]

	if invariant.Enabled {
		ref.check(c, s)
	}
	s.RSEmpty = len(c.rs) == 0
	c.lastIssue = s.IssueYoungest
}

// noteWaiting records Table III's oldest-waiting-VFP signals for an entry
// that stays in the RS this cycle.
func (c *Core) noteWaiting(s *core.CycleSample, op trace.Op, oldestSeen *bool, cls core.ProdClass, producerIsLoad bool) {
	if !op.IsVFP() {
		return
	}
	s.VFPInRS = true
	if *oldestSeen {
		return
	}
	*oldestSeen = true
	s.OldestVFPClass = cls
	s.OldestVFPWaitsLoad = producerIsLoad
}

// blame classifies the producer a non-ready slot waits on, Table II's
// blamed instruction for the issue column: whether it is a load, and its
// miss depth.
func (c *Core) blame(slot int) (core.ProdClass, bool, uint8) {
	if _, _, blamed := c.srcScan(slot); blamed != trace.NoProducer {
		return c.sb.producerClassDepth(blamed)
	}
	return core.ProdDepend, false, 0
}

// srcScan walks the slot's source operands in order. It returns the latest
// completion time over the producers before the first unissued one, that
// unissued producer (waitOn, trace.NoProducer when every producer has
// issued), and the first source not available this cycle — the blamed
// producer of Table II's issue column (trace.NoProducer when all sources are
// available): the first operand, in order, with an unissued or
// still-executing producer.
func (c *Core) srcScan(slot int) (latest int64, waitOn, blamed uint64) {
	waitOn, blamed = trace.NoProducer, trace.NoProducer
	for _, src := range c.rob.u[slot].Src {
		if src == trace.NoProducer {
			continue
		}
		t, ok := c.sb.readyAt(src)
		if !ok {
			// An unissued producer makes the entry non-ready regardless of
			// the remaining operands, and blame (first non-available source)
			// is already decided, so the scan can stop here.
			waitOn = src
			if blamed == trace.NoProducer {
				blamed = src
			}
			return
		}
		if t > latest {
			latest = t
		}
		if t > c.now && blamed == trace.NoProducer {
			blamed = src
		}
	}
	return
}

// await settles a slot's wakeup state: it waits on its first unissued
// producer, linked into that producer's wait list, or — every producer
// issued — caches the latest producer completion time.
func (c *Core) await(slot int) {
	latest, waitOn, _ := c.srcScan(slot)
	if waitOn == trace.NoProducer {
		c.readyAt[slot] = latest
		return
	}
	head := &c.sb.wait[c.sb.idx(waitOn)]
	c.waitNext[slot] = *head
	*head = int32(slot) + 1
	c.readyAt[slot] = notReady
}

// wake re-settles every slot waiting on producer seq, which has just
// issued. A woken slot either caches its completion time or moves on to
// wait for its next unissued producer.
func (c *Core) wake(seq uint64) {
	head := &c.sb.wait[c.sb.idx(seq)]
	next := *head
	*head = 0
	for next != 0 {
		slot := int(next - 1)
		next = c.waitNext[slot]
		c.await(slot)
	}
}

// unwait unlinks a waiting slot that is being squashed from its producer's
// wait list.
func (c *Core) unwait(slot int) {
	_, waitOn, _ := c.srcScan(slot)
	p := &c.sb.wait[c.sb.idx(waitOn)]
	for *p != int32(slot)+1 {
		p = &c.waitNext[*p-1]
	}
	*p = c.waitNext[slot]
}

// portFree checks and claims a functional-unit port for op.
func (c *Core) portFree(ports *portsInUse, op trace.Op) bool {
	switch op {
	case trace.OpLoad:
		if ports.load >= c.p.LoadPorts {
			return false
		}
		ports.load++
	case trace.OpStore:
		if ports.store >= c.p.StorePorts {
			return false
		}
		ports.store++
	case trace.OpMul, trace.OpDiv:
		if ports.muldiv >= c.p.IntMulDivs {
			return false
		}
		if op == trace.OpDiv {
			// Divides are not pipelined: need a unit whose divider is free.
			unit := -1
			for i := range c.divBusyUntil {
				if c.divBusyUntil[i] <= c.now {
					unit = i
					break
				}
			}
			if unit < 0 {
				return false
			}
			c.divBusyUntil[unit] = c.now + c.p.latency(trace.OpDiv)
		}
		ports.muldiv++
	case trace.OpFPAdd, trace.OpFPMul, trace.OpFPDiv, trace.OpFMA, trace.OpVInt:
		if ports.vfp >= c.p.VFPUnits {
			return false
		}
		ports.vfp++
	case trace.OpBroadcast:
		// Memory-broadcast form: executes on a load port.
		if ports.load >= c.p.LoadPorts {
			return false
		}
		ports.load++
	case trace.OpNop, trace.OpALU, trace.OpBranch, trace.OpCall, trace.OpRet,
		trace.OpBarrier:
		if ports.alu >= c.p.IntALUs {
			return false
		}
		ports.alu++
	}
	return true
}

// memConflict reports whether an older in-flight store to the load's line
// has not yet completed; completed and squashed entries are pruned.
func (c *Core) memConflict(slot int) bool {
	line := c.rob.u[slot].Addr >> 6
	seq := c.rob.u[slot].Seq
	kept := c.pendingStores[:0]
	conflict := false
	for _, ps := range c.pendingStores {
		if ps.issued && ps.doneAt <= c.now {
			continue // store complete: no longer a hazard
		}
		kept = append(kept, ps)
		if ps.line == line && older(ps.seq, seq) {
			conflict = true
		}
	}
	c.pendingStores = kept
	return conflict
}

// older orders sequence numbers across the correct-path and wrong-path
// spaces: wrong-path uops are always younger than correct-path ones in the
// window (they were fetched after the mispredicted branch).
func older(a, b uint64) bool {
	aw, bw := a&wpBit != 0, b&wpBit != 0
	if aw != bw {
		return !aw // correct-path is older than wrong-path
	}
	return a < b
}

// execute issues one ready uop to its functional unit.
func (c *Core) execute(s *core.CycleSample, slot int) {
	u := &c.rob.u[slot]
	var doneAt int64
	var miss bool
	var missDepth uint8
	//simlint:partial only memory ops touch the hierarchy; every other op completes after its precomputed latency
	switch u.Op {
	case trace.OpLoad:
		var depth int
		doneAt, depth = c.hier.DataDepth(u.Addr, c.now, false)
		miss = depth > 0
		missDepth = uint8(depth)
		c.rob.lat[slot] = doneAt - c.now
		if miss {
			c.rob.flags[slot] |= robDcacheMiss
		}
		c.rob.depth[slot] = missDepth
		if !u.WrongPath {
			c.Stats.Loads++
		}
	case trace.OpStore:
		// Stores complete into the store buffer; the cache access charges
		// hierarchy state (fills, MSHRs, bandwidth) without blocking retire.
		c.hier.Data(u.Addr, c.now, true)
		doneAt = c.now + c.p.Lat.Store
		if c.p.MemDisambiguation {
			for i := range c.pendingStores {
				if c.pendingStores[i].seq == u.Seq {
					c.pendingStores[i].issued = true
					c.pendingStores[i].doneAt = doneAt
					break
				}
			}
		}
		if !u.WrongPath {
			c.Stats.Stores++
		}
	default:
		doneAt = c.now + c.rob.lat[slot]
	}
	c.rob.flags[slot] |= robIssued
	c.rob.doneAt[slot] = doneAt
	c.sb.issue(u.Seq, doneAt, c.rob.lat[slot], miss, missDepth)
	c.wake(u.Seq)

	if c.rob.flags[slot]&robMispredict != 0 {
		c.hasResolve = true
		c.resolveAt = doneAt
		c.resolveSeq = u.Seq
	}

	if u.WrongPath {
		s.IssueWrongN++
		if s.IssueN == 0 {
			s.IssueYoungest = u.Seq
		}
		return
	}
	s.IssueN++
	s.IssueYoungest = u.Seq
	c.lastCPIssue = u.Seq

	if u.Op.IsVFP() {
		s.VFPIssued++
		s.VFPActiveLanes += u.ActiveLanes()
		s.VFPFlops += u.FLOPs()
		c.Stats.VFPUops++
		c.Stats.FLOPs += uint64(u.FLOPs())
	} else if u.Op.UsesVectorUnit() {
		s.VUNonVFP++
	}
}

// dispatch moves decoded uops into the ROB and reservation stations.
func (c *Core) dispatch(s *core.CycleSample) {
	for n := 0; n < c.p.DispatchWidth; n++ {
		if c.rob.full() {
			s.ROBFull = true
			break
		}
		if len(c.rs) >= c.p.RSSize {
			s.RSFull = true
			break
		}
		u, mispredict, ok := c.fe.pop()
		if !ok {
			s.FEEmpty = true
			break
		}
		slot := c.rob.push(u, c.p.latency(u.Op), mispredict)
		c.sb.allocate(u.Seq, u.Op == trace.OpLoad)
		c.rs = append(c.rs, rsEntry{slot: int32(slot), op: u.Op})
		if u.Op.IsVFP() {
			c.rsVFP++
		}
		c.await(slot)
		if c.p.MemDisambiguation && u.Op == trace.OpStore {
			c.pendingStores = append(c.pendingStores, pendingStore{
				seq: u.Seq, line: u.Addr >> 6,
			})
		}

		if u.WrongPath {
			s.DispatchWrongN++
			c.Stats.WrongPathUops++
			if s.DispatchN == 0 {
				s.DispatchYoungest = u.Seq
				c.lastDisp = u.Seq
			}
		} else {
			s.DispatchN++
			if u.Op.IsBranch() {
				c.Stats.Branches++
			}
			if mispredict {
				c.Stats.Mispredicts++
			}
			s.DispatchYoungest = u.Seq
			c.lastDisp = u.Seq
			c.lastCPDisp = u.Seq
		}
	}

	s.FECause = c.fe.cause()
	s.WrongPath = c.fe.wrongPath
}

// squashWrongPath removes wrong-path uops from the ROB, the reservation
// stations and the decoded queue when a mispredicted branch resolves.
func (c *Core) squashWrongPath() {
	c.lastDisp = c.lastCPDisp
	c.lastIssue = c.lastCPIssue
	removed := c.rob.popTailWrongPath()
	c.Stats.SquashedUops += uint64(removed)
	if removed > 0 && len(c.pendingStores) > 0 {
		kept := c.pendingStores[:0]
		for _, ps := range c.pendingStores {
			if ps.seq&wpBit != 0 {
				continue
			}
			kept = append(kept, ps)
		}
		c.pendingStores = kept
	}
	if removed > 0 {
		kept := c.rs[:0]
		for _, e := range c.rs {
			if !c.rob.u[e.slot].WrongPath {
				kept = append(kept, e)
				continue
			}
			if c.readyAt[e.slot] == notReady {
				c.unwait(int(e.slot))
			}
			if e.op.IsVFP() {
				c.rsVFP--
			}
		}
		c.rs = kept
	}
	c.fe.squashQueue()
}

// SetContext installs a context for cooperative cancellation: Run returns
// early (with partial statistics) once ctx is done, and Canceled reports it.
// A nil context restores the unconditional run loop.
func (c *Core) SetContext(ctx context.Context) { c.ctx = ctx }

// Canceled reports whether Run stopped early because its context was done.
// A canceled run's statistics and accounting cover only the cycles executed
// before the stop and must not be mistaken for a complete measurement.
func (c *Core) Canceled() bool { return c.canceled }

// cancelCheckMask spaces the context polls in Run: one check per 8192 steps
// keeps the cancellation latency far below human-perceptible while staying
// immeasurable next to the per-step simulation work.
const cancelCheckMask = 1<<13 - 1

// Run steps the core to completion and returns its statistics. With a
// context installed (SetContext), the loop additionally polls ctx.Done()
// every few thousand steps and stops early when it fires.
func (c *Core) Run() Stats {
	if c.ctx == nil {
		for c.Step() {
		}
		return c.Stats
	}
	done := c.ctx.Done()
	for n := uint(1); c.Step(); n++ {
		if n&cancelCheckMask == 0 {
			select {
			case <-done:
				c.canceled = true
				return c.Stats
			default:
			}
		}
	}
	return c.Stats
}
