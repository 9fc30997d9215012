package cpu

import (
	"perfstacks/internal/core"
	"perfstacks/internal/invariant"
	"perfstacks/internal/trace"
)

// This file holds the simdebug cross-check of the issue stage's wakeup
// state. Core.issue reaches it only through `if invariant.Enabled` guards,
// so a normal build compiles it away. Each check boxes its message
// arguments only when it fails: it runs every cycle.

// checkWakeup asserts, under simdebug, that every RS entry's wakeup state
// equals a fresh walk of its sources, and that the entry mirrors its ROB
// slot.
func (c *Core) checkWakeup() {
	vfp := 0
	for _, e := range c.rs {
		slot := int(e.slot)
		if e.op != c.rob.u[slot].Op {
			invariant.Failf("cycle %d: RS entry of slot %d holds op %v, ROB has %v", c.now, slot, e.op, c.rob.u[slot].Op)
		}
		if e.op.IsVFP() {
			vfp++
		}
		latest, waitOn, _ := c.srcScan(slot)
		cached := c.readyAt[slot]
		if waitOn != trace.NoProducer {
			if cached != notReady {
				invariant.Failf("cycle %d: seq %#x waits on unissued producer %#x but caches readyAt %d",
					c.now, c.rob.u[slot].Seq, waitOn, cached)
			}
			continue
		}
		// A committed producer reads as ready at 0 in a fresh walk; it
		// completed by now, so the cached time can only differ when both
		// lie in the past.
		if cached != latest && (cached > c.now || latest > c.now) {
			invariant.Failf("cycle %d: seq %#x caches readyAt %d, its sources give %d", c.now, c.rob.u[slot].Seq, cached, latest)
		}
	}
	if vfp != c.rsVFP {
		invariant.Failf("cycle %d: RS holds %d VFP entries, counted %d", c.now, vfp, c.rsVFP)
	}
}

// fullScan recomputes, under simdebug, the issue stage's readiness and its
// Table II/III signals from a fresh walk of every examined entry's sources,
// as an issue stage without the wakeup state would.
type fullScan struct {
	curCls     core.ProdClass // the last scanned entry's class, if non-ready
	curLoad    bool
	firstSet   bool
	first      core.ProdClass
	firstDepth uint8
	vfpSet     bool
	vfp        core.ProdClass
	vfpLoad    bool
}

// scan walks the examined slot's sources and checks its cached readiness.
func (f *fullScan) scan(c *Core, slot int) {
	latest, waitOn, blamed := c.srcScan(slot)
	notReadyNow := waitOn != trace.NoProducer || latest > c.now
	if notReadyNow != (c.readyAt[slot] > c.now) {
		invariant.Failf("cycle %d: seq %#x is ready=%v by its sources, %v by its wakeup state",
			c.now, c.rob.u[slot].Seq, !notReadyNow, c.readyAt[slot] <= c.now)
	}
	f.curCls, f.curLoad = core.ProdNone, false
	if !notReadyNow {
		return
	}
	var depth uint8
	f.curCls = core.ProdDepend
	if blamed != trace.NoProducer {
		f.curCls, f.curLoad, depth = c.sb.producerClassDepth(blamed)
	}
	if !f.firstSet {
		f.firstSet, f.first, f.firstDepth = true, f.curCls, depth
	}
}

// kept records that the last scanned entry stays in the RS.
func (f *fullScan) kept(op trace.Op) {
	if op.IsVFP() && !f.vfpSet {
		f.vfpSet, f.vfp, f.vfpLoad = true, f.curCls, f.curLoad
	}
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
