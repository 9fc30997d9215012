package cpu

import (
	"context"
	"math"
	"math/bits"

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

	// The reservation stations, as bitsets over ROB ring slots. rsSet holds
	// the dispatched, unissued uops, in age order from the ROB head; vfpSet
	// marks its VFP entries. Each entry is in exactly one wakeup state:
	// ready (readyAt <= now, in ready), timed (every producer issued and
	// readyAt > now, on the calendar) or waiting (on an unissued producer,
	// readyAt is notReady). rsN and rsVFP count rsSet and vfpSet.
	rsSet, ready, vfpSet bitset
	rsN, rsVFP           int

	// Wakeup state of each RS entry, indexed by ROB slot. readyAt is
	// notReady while the uop waits on an unissued producer, linked through
	// link into that producer's scoreboard wait list; once every producer
	// has issued it is the latest producer completion time, and a timed
	// entry is linked through link into its calendar due list. A producer's
	// completion time is fixed when it issues, so the cached value stays
	// exact until the uop leaves the RS.
	readyAt []int64
	link    []int32

	// cal is the completion calendar: it promotes timed entries when their
	// readyAt arrives and records every issued uop's completion for
	// nextEvent.
	cal calendar

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
	// escape hatch behind sim.Options.NoSkip). Gang cores skip too: an idle
	// window makes no shared-uncore access, and SMP.Step lets a core sleep
	// through its window while its siblings step. A yielded core never
	// skips — only a barrier release ends its wait, and that comes from
	// outside the core — so each of its cycles is its own Unsched sample.
	noSkip bool

	// progressAt is, under simdebug, the cycle from which checkProgress
	// measures the wait for the next commit or yield: the last such cycle,
	// or the latest completion a hierarchy access set, whichever is later.
	progressAt int64

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
	ring := len(r.u)
	return &Core{
		p:            p,
		fe:           newFrontend(&p, tr, hier, pred),
		rob:          r,
		sb:           newScoreboard(p.ROBSize),
		hier:         hier,
		rsSet:        newBitset(ring),
		ready:        newBitset(ring),
		vfpSet:       newBitset(ring),
		readyAt:      make([]int64, ring),
		link:         make([]int32, ring),
		cal:          newCalendar(ring),
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
		s.RSEmpty = c.rsN == 0
		s.ROBEmpty = c.rob.empty()
		s.FEEmpty = true
		c.Stats.BarrierWaits++
		c.emit(s)
		if invariant.Enabled {
			c.checkProgress(s)
		}
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
	if invariant.Enabled {
		c.checkProgress(s)
	}
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
	if !c.noSkip && !c.yielded &&
		s.CommitN == 0 && s.IssueN == 0 && s.IssueWrongN == 0 &&
		s.DispatchN == 0 && s.DispatchWrongN == 0 && s.FetchN == 0 &&
		!s.HasSquash && c.fe.qLen == qLen0 {
		next := c.nextEvent()
		if invariant.Enabled {
			c.checkNextEvent(next)
		}
		if next > c.now && next != math.MaxInt64 {
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
// the frontend's stall expiring (I-cache miss return, redirect penalty,
// microcode occupancy) or an issued uop completing. Every other timed
// source is such a completion: a pending branch resolution, the ROB head,
// a producer of an RS entry (which can both ready the consumer and change
// the blamed-producer classification), a non-pipelined divider freeing up,
// and an in-flight store releasing a memory-order-blocked load. The
// calendar holds all of them, so the target is never later than the
// earliest of those sources (checkNextEvent asserts it under simdebug).
func (c *Core) nextEvent() int64 {
	next := c.cal.next()
	if t := c.fe.stallUntil; t >= c.now && t < next {
		next = t
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

// notReady is Core.readyAt's mark for a uop waiting on an unissued producer.
const notReady = int64(math.MaxInt64)

// issue selects ready uops oldest-first and issues them to available ports,
// and gathers the issue-stage and VFP accounting signals. The walk visits
// only the ready set, so an entry that cannot issue costs nothing; blame is
// computed only where a signal consumes it, after the walk: for the first
// non-ready entry (Table II issue column) and the oldest waiting VFP entry
// (Table III). Computing it after the walk is exact because a consumer's
// producers are all older than it: any producer that issues this cycle does
// so before the walk passes the consumer. Once the issue width is spent the
// rest of the RS stays unexamined.
func (c *Core) issue(s *core.CycleSample) {
	c.promote()
	if invariant.Enabled {
		c.checkWakeup()
	}
	var ref fullScan
	var ports portsInUse
	issued, width := 0, c.p.IssueWidth
	head, mask := c.rob.head, c.rob.mask
	// stop bounds the ages of the examined entries: the entry that spent
	// the issue width, or the whole ring.
	stop := mask + 1

	ready, nw := c.ready, len(c.ready)
	hw, hb := head>>6, head&63
walk:
	for k := 0; k <= nw; k++ {
		j := (hw + k) & (nw - 1)
		w := ready[j]
		if k == 0 {
			w &= ^uint64(0) << hb
		} else if k == nw {
			w &= 1<<hb - 1
		}
		for ; w != 0; w &= w - 1 {
			slot := j<<6 | bits.TrailingZeros64(w)
			op := c.rob.u[slot].Op
			if invariant.Enabled {
				ref.visit(c, (slot-head)&mask)
			}
			if c.p.MemDisambiguation && op == trace.OpLoad && c.memConflict(slot) {
				// Load blocked behind an older in-flight store to its line: the
				// issue-only "memory address conflict" structural stall.
				if !s.IssueBlockedPort && !s.IssueBlockedMemOrder {
					s.IssueBlockedMemOrder = true
				}
			} else if !c.portFree(&ports, op) {
				// Ready but structurally blocked: stays in the RS; if it is the
				// oldest waiting entry the stall is structural (ProdNone).
				if !s.IssueBlockedPort && !s.IssueBlockedMemOrder {
					s.IssueBlockedPort = true
				}
			} else {
				c.execute(s, slot)
				c.leaveRS(slot)
				if issued++; issued == width {
					stop = (slot - head) & mask
					break walk
				}
				continue
			}
			if invariant.Enabled {
				ref.kept(op)
			}
		}
	}

	// The first non-ready entry, if examined, carries Table II's blame.
	var cls core.ProdClass
	var isLoad bool
	nr := c.rsSet.nextAndNot(c.ready, head)
	if nr >= 0 && (nr-head)&mask < stop {
		var depth uint8
		cls, isLoad, depth = c.blame(nr)
		s.FirstNonReadyClass = cls
		s.FirstNonReadyMissDepth = depth
	}
	// The oldest VFP entry left in the RS carries Table III's signals: its
	// producer's class if it was examined and is not ready, else ProdNone
	// (a ready entry blocked on a port, or one in the unexamined tail).
	if c.rsVFP > 0 {
		s.VFPInRS = true
		if v := c.vfpSet.next(head); !c.ready.has(v) && (v-head)&mask < stop {
			if v != nr {
				cls, isLoad, _ = c.blame(v)
			}
			s.OldestVFPClass = cls
			s.OldestVFPWaitsLoad = isLoad
		}
	}

	if invariant.Enabled {
		ref.finish(c, stop)
		ref.check(c, s)
	}
	s.RSEmpty = c.rsN == 0
	c.lastIssue = s.IssueYoungest
}

// promote processes the calendar up to now: every timed entry whose readyAt
// has arrived becomes ready. Usually only now's wheel slot is due; after a
// skipped or yielded window the wheel is scanned for the window's events
// (a skipped window holds none but its last cycle's).
func (c *Core) promote() {
	cal := &c.cal
	for cal.base <= c.now {
		p := int(cal.base) & calMask
		if cal.base < c.now {
			q := cal.when.next(p)
			if q < 0 {
				break
			}
			t := cal.base + int64((q-p)&calMask)
			if t > c.now {
				break
			}
			cal.base, p = t, q
		}
		if cal.when.has(p) {
			cal.when.clear(p)
			for e := cal.due[p]; e != 0; e = c.link[e-1] {
				c.ready.set(int(e - 1))
			}
			cal.due[p] = 0
		}
		cal.base++
	}
	cal.base = c.now + 1
	if cal.overMin < cal.base+calHorizon {
		c.drainOverflow()
	}
}

// drainOverflow moves the overflow events that now fall inside the wheel
// onto it; a timed entry whose readyAt passed during a yielded window is
// promoted at once.
func (c *Core) drainOverflow() {
	cal := &c.cal
	kept := cal.over[:0]
	cal.overMin = math.MaxInt64
	for _, e := range cal.over {
		switch {
		case e.at-cal.base >= calHorizon:
			kept = append(kept, e)
			cal.overMin = min(cal.overMin, e.at)
		case e.at < cal.base:
			if e.slot >= 0 {
				c.ready.set(int(e.slot))
			}
		default:
			cal.add(e.at, int(e.slot), c.link)
		}
	}
	cal.over = kept
}

// leaveRS removes a slot from the reservation stations.
func (c *Core) leaveRS(slot int) {
	c.rsSet.clear(slot)
	c.ready.clear(slot)
	c.rsN--
	if c.vfpSet.has(slot) {
		c.vfpSet.clear(slot)
		c.rsVFP--
	}
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
// issued — caches the latest producer completion time and is ready, or
// timed and on the calendar until that time.
func (c *Core) await(slot int) {
	latest, waitOn, _ := c.srcScan(slot)
	if waitOn == trace.NoProducer {
		c.readyAt[slot] = latest
		if latest <= c.now {
			c.ready.set(slot)
		} else {
			c.cal.add(latest, slot, c.link)
		}
		return
	}
	head := &c.sb.wait[c.sb.idx(waitOn)]
	c.link[slot] = *head
	*head = int32(slot) + 1
	c.readyAt[slot] = notReady
}

// wake re-settles every slot waiting on producer seq, which has just
// issued. A woken slot either becomes timed (the producer completes after
// now, so never ready this cycle) or moves on to wait for its next
// unissued producer.
func (c *Core) wake(seq uint64) {
	head := &c.sb.wait[c.sb.idx(seq)]
	next := *head
	*head = 0
	for next != 0 {
		slot := int(next - 1)
		next = c.link[slot]
		c.await(slot)
	}
}

// unwait unlinks a waiting slot that is being squashed from its producer's
// wait list.
func (c *Core) unwait(slot int) {
	_, waitOn, _ := c.srcScan(slot)
	p := &c.sb.wait[c.sb.idx(waitOn)]
	for *p != int32(slot)+1 {
		p = &c.link[*p-1]
	}
	*p = c.link[slot]
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
	// only memory ops touch the hierarchy; every other op completes after its precomputed latency
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
		if invariant.Enabled {
			c.progressAt = max(c.progressAt, doneAt)
		}
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
	c.cal.add(doneAt, -1, nil)
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
		if c.rsN >= c.p.RSSize {
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
		c.rsSet.set(slot)
		c.rsN++
		if u.Op.IsVFP() {
			c.vfpSet.set(slot)
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
	// The squashed uops held the ring slots just past the new ROB tail.
	for i := 0; i < removed; i++ {
		slot := (c.rob.head + c.rob.count + i) & c.rob.mask
		if !c.rsSet.has(slot) {
			continue
		}
		if c.readyAt[slot] == notReady {
			c.unwait(slot)
		} else if !c.ready.has(slot) {
			c.cal.remove(slot, c.readyAt[slot], c.link)
		}
		c.leaveRS(slot)
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
