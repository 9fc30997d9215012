package cpu

import (
	"math"

	"perfstacks/internal/core"
	"perfstacks/internal/invariant"
	"perfstacks/internal/trace"
)

// This file holds the simdebug cross-checks of the issue stage's wakeup
// state, of the completion calendar and of forward progress. The core and
// the gang reach them only through `if invariant.Enabled` guards, so a
// normal build compiles them away. Each check boxes its message arguments
// only when it fails: they run every cycle.

// checkWakeup asserts, under simdebug, that the reservation-station bitsets
// and counts agree with the ROB, and that every entry's wakeup state equals
// a fresh walk of its sources: waiting entries wait on an unissued producer,
// ready ones have every source available, and timed ones cache the latest
// producer completion and sit on the calendar at that time.
func (c *Core) checkWakeup() {
	n, vfp := 0, 0
	for slot := 0; slot <= c.rob.mask; slot++ {
		isReady, isVFP := c.ready.has(slot), c.vfpSet.has(slot)
		if !c.rsSet.has(slot) {
			if isReady || isVFP {
				invariant.Failf("cycle %d: slot %d is not in the RS but marked ready %v, VFP %v", c.now, slot, isReady, isVFP)
			}
			continue
		}
		n++
		u := &c.rob.u[slot]
		if (slot-c.rob.head)&c.rob.mask >= c.rob.count || c.rob.flags[slot]&robIssued != 0 {
			invariant.Failf("cycle %d: RS slot %d holds no unissued ROB entry", c.now, slot)
		}
		if isVFP != u.Op.IsVFP() {
			invariant.Failf("cycle %d: seq %#x (%v) marked VFP %v", c.now, u.Seq, u.Op, isVFP)
		}
		if isVFP {
			vfp++
		}
		latest, waitOn, _ := c.srcScan(slot)
		cached := c.readyAt[slot]
		if waitOn != trace.NoProducer {
			if cached != notReady || isReady {
				invariant.Failf("cycle %d: seq %#x waits on unissued producer %#x but caches readyAt %d (ready %v)",
					c.now, u.Seq, waitOn, cached, isReady)
			}
			continue
		}
		// A committed producer reads as ready at 0 in a fresh walk; it
		// completed by now, so the cached time can only differ when both
		// lie in the past.
		if cached != latest && (cached > c.now || latest > c.now) {
			invariant.Failf("cycle %d: seq %#x caches readyAt %d, its sources give %d", c.now, u.Seq, cached, latest)
		}
		if isReady != (latest <= c.now) {
			invariant.Failf("cycle %d: seq %#x is ready %v, its sources give readyAt %d", c.now, u.Seq, isReady, latest)
		}
		if !isReady && !c.cal.holds(slot, cached, c.link) {
			invariant.Failf("cycle %d: timed seq %#x is missing from the calendar at %d", c.now, u.Seq, cached)
		}
	}
	if n != c.rsN || vfp != c.rsVFP {
		invariant.Failf("cycle %d: RS holds %d entries (%d VFP), counted %d (%d VFP)", c.now, n, vfp, c.rsN, c.rsVFP)
	}
}

// holds reports whether the calendar promotes slot at t.
func (cal *calendar) holds(slot int, t int64, link []int32) bool {
	if t < cal.base {
		return false
	}
	if t-cal.base >= calHorizon {
		for _, e := range cal.over {
			if e.slot == int32(slot) && e.at == t {
				return true
			}
		}
		return false
	}
	p := int(t) & calMask
	if !cal.when.has(p) {
		return false
	}
	for e := cal.due[p]; e != 0; e = link[e-1] {
		if int(e-1) == slot {
			return true
		}
	}
	return false
}

// fullScan recomputes, under simdebug, the issue stage's readiness and its
// Table II/III signals the way the select walk did before the ready set:
// every RS entry oldest-first, scanning each entry's sources when the walk
// reaches it, until the issue width is spent. It advances in step with the
// select walk — before the walk examines a ready entry, the reference
// examines every older entry the walk skipped — so each entry is scanned
// in the same pipeline state as that walk scanned it.
type fullScan struct {
	pos        int            // age of the next entry to examine
	curCls     core.ProdClass // the last scanned entry's class, if non-ready
	curLoad    bool
	firstSet   bool
	first      core.ProdClass
	firstDepth uint8
	vfpSet     bool
	vfp        core.ProdClass
	vfpLoad    bool
}

// visit examines the entries the select walk skipped before the ready
// entry at age, each of which must be non-ready by its sources, then that
// entry, which must be ready by them.
func (f *fullScan) visit(c *Core, age int) {
	f.upTo(c, age)
	slot := (c.rob.head + age) & c.rob.mask
	if !f.scan(c, slot) {
		invariant.Failf("cycle %d: the select walk examines seq %#x, not ready by its sources", c.now, c.rob.u[slot].Seq)
	}
	f.pos = age + 1
}

// upTo examines the RS entries from pos up to (excluding) age end, all of
// which stay in the RS.
func (f *fullScan) upTo(c *Core, end int) {
	for ; f.pos < end; f.pos++ {
		slot := (c.rob.head + f.pos) & c.rob.mask
		if !c.rsSet.has(slot) {
			continue
		}
		if f.scan(c, slot) {
			invariant.Failf("cycle %d: the select walk skips seq %#x, ready by its sources", c.now, c.rob.u[slot].Seq)
		}
		f.kept(c.rob.u[slot].Op)
	}
}

// scan walks the slot's sources and reports whether it is ready; for a
// non-ready slot it records the blamed producer's class.
func (f *fullScan) scan(c *Core, slot int) bool {
	latest, waitOn, blamed := c.srcScan(slot)
	f.curCls, f.curLoad = core.ProdNone, false
	if waitOn == trace.NoProducer && latest <= c.now {
		return true
	}
	var depth uint8
	f.curCls = core.ProdDepend
	if blamed != trace.NoProducer {
		f.curCls, f.curLoad, depth = c.sb.producerClassDepth(blamed)
	}
	if !f.firstSet {
		f.firstSet, f.first, f.firstDepth = true, f.curCls, depth
	}
	return false
}

// kept records that the last scanned entry stays in the RS.
func (f *fullScan) kept(op trace.Op) {
	if op.IsVFP() && !f.vfpSet {
		f.vfpSet, f.vfp, f.vfpLoad = true, f.curCls, f.curLoad
	}
}

// finish examines the entries left after the select walk's last ready one,
// up to the age bound stop of the examined range.
func (f *fullScan) finish(c *Core, stop int) {
	f.upTo(c, min(stop, c.rob.count))
}

// check compares the emitted signals with the full scan's. When no examined
// entry set them, the oldest waiting VFP uop, if any, sits in the
// unexamined tail and waits structurally (ProdNone, the zero value).
func (f *fullScan) check(c *Core, s *core.CycleSample) {
	if s.FirstNonReadyClass != f.first || s.FirstNonReadyMissDepth != f.firstDepth {
		invariant.Failf("cycle %d: first non-ready class %v depth %d, full scan gives %v depth %d",
			c.now, s.FirstNonReadyClass, s.FirstNonReadyMissDepth, f.first, f.firstDepth)
	}
	inRS := c.rsVFP > 0
	if s.VFPInRS != inRS {
		invariant.Failf("cycle %d: VFPInRS %v with %d VFP entries in the RS", c.now, s.VFPInRS, c.rsVFP)
	}
	if s.OldestVFPClass != f.vfp || s.OldestVFPWaitsLoad != f.vfpLoad {
		invariant.Failf("cycle %d: oldest waiting VFP class %v (load %v), full scan gives %v (load %v)",
			c.now, s.OldestVFPClass, s.OldestVFPWaitsLoad, f.vfp, f.vfpLoad)
	}
}

// checkProgress asserts, under simdebug, that the pipeline moves forward:
// within Params.progressBound cycles of progressAt some uop commits or the
// core yields at a barrier. A load's or an I-cache fill's latency comes
// from the hierarchy, not from Params, so the wait is measured from its
// completion when that is later. A pipeline that stops committing then
// fails here instead of stepping forever.
func (c *Core) checkProgress(s *core.CycleSample) {
	c.progressAt = max(c.progressAt, c.fe.stallUntil)
	if s.CommitN > 0 || c.yielded {
		c.progressAt = max(c.progressAt, c.now)
	} else if c.now-c.progressAt > c.p.progressBound() {
		invariant.Failf("cycle %d: no uop committed and no barrier reached since cycle %d (bound %d cycles, ROB holds %d)",
			c.now, c.progressAt, c.p.progressBound(), c.rob.count)
	}
}

// checkProgress asserts, under simdebug, that the gang moves forward: every
// core left is past the clock value just stepped, so the next clock is
// later, and some core is not parked at a barrier, so a sibling can still
// commit (each core's own checkProgress bounds how long that takes).
func (s *SMP) checkProgress(clock int64) {
	yielded := 0
	for _, i := range s.active {
		c := s.Cores[i]
		if c.now <= clock {
			invariant.Failf("gang clock %d: core %d is still at cycle %d", clock, i, c.now)
		}
		if c.yielded {
			yielded++
		}
	}
	if yielded > 0 && yielded == len(s.active) {
		invariant.Failf("gang clock %d: all %d unfinished cores wait at a barrier and none is released", clock, yielded)
	}
}

// checkNextEvent asserts, under simdebug, that the calendar's jump target
// is no later than the earliest event of the sources an idle pipeline
// waits on, found by walking them as nextEvent did before the calendar.
func (c *Core) checkNextEvent(next int64) {
	if ref := c.sourceNextEvent(); next > ref {
		invariant.Failf("cycle %d: the calendar's next event is at %d, its sources give %d", c.now, next, ref)
	}
}

// sourceNextEvent returns the earliest cycle >= c.now of a pending branch
// resolution, the frontend's stall expiring, the ROB head completing, an
// issued producer of an RS entry completing, a divider freeing up while a
// divide waits, or an issued store completing; math.MaxInt64 if none.
func (c *Core) sourceNextEvent() int64 {
	next := int64(math.MaxInt64)
	consider := func(t int64) {
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
	for slot := 0; slot <= c.rob.mask; slot++ {
		if !c.rsSet.has(slot) {
			continue
		}
		if c.rob.u[slot].Op == trace.OpDiv {
			hasDiv = true
		}
		for _, src := range c.rob.u[slot].Src {
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
