package cpu

import (
	"context"
	"math"

	"perfstacks/internal/invariant"
)

// SMP steps several cores against a shared uncore (the cores' hierarchies
// are built over one shared L3/memory via cache.NewHierarchyShared) on one
// gang clock. Cores that commit a barrier uop yield — their cycles surface
// as the Unsched component — until every running core has reached the same
// barrier, mirroring the OpenMP-style synchronization the paper's DeepBench
// workloads exhibit (Figure 5's "Unsched").
//
// A core may skip an idle window like a lone core does; it then sleeps until
// the gang clock reaches its Now(). The result is the same as stepping every
// core every cycle: an idle window makes no access to the shared L3 or
// memory, and a yielded core never skips, so every uncore access and every
// barrier arrival and release happens in the same cycle and core order.
type SMP struct {
	Cores []*Core

	// active holds the indices of unfinished cores in core order, compacted
	// as cores finish: late-finishing mixes step only the cores still alive
	// instead of re-scanning (and re-branching on) every finished slot.
	active []int

	waiting int

	ctx      context.Context
	canceled bool
}

// NewSMP wires the cores' barrier callbacks together.
func NewSMP(cores []*Core) *SMP {
	s := &SMP{
		Cores:  cores,
		active: make([]int, len(cores)),
	}
	for i, c := range cores {
		s.active[i] = i
		c.SetBarrierWaiter(func(*Core) { s.waiting++ })
	}
	return s
}

// releaseIfAll releases all yielded cores once every unfinished core waits.
func (s *SMP) releaseIfAll() {
	if s.waiting == 0 || s.waiting < len(s.active) {
		return
	}
	for _, i := range s.active {
		if c := s.Cores[i]; c.Yielded() {
			c.ReleaseBarrier()
		}
	}
	s.waiting = 0
}

// Step advances the gang clock by one step: the clock is the earliest Now()
// among the unfinished cores, and exactly the cores at it step, in core
// order; the rest sleep inside a skipped idle window. It returns false when
// all cores have finished. Finished cores are compacted out of the active
// list in order, so the relative stepping (and shared-uncore access) order
// of the survivors is unchanged.
func (s *SMP) Step() bool {
	if len(s.active) == 0 {
		return false
	}
	clock := int64(math.MaxInt64)
	for _, i := range s.active {
		clock = min(clock, s.Cores[i].now)
	}
	kept := s.active[:0]
	for _, i := range s.active {
		if c := s.Cores[i]; c.now != clock || c.Step() {
			kept = append(kept, i)
		}
		// A finished core can no longer reach barriers; dropping it from the
		// active list recounts the waiters threshold and avoids deadlock.
	}
	s.active = kept
	s.releaseIfAll()
	if invariant.Enabled {
		s.checkProgress(clock)
	}
	return len(s.active) > 0
}

// SetContext installs a context for cooperative cancellation of Run. The
// whole gang stops together: cancellation is polled between gang steps, not
// inside any single core.
func (s *SMP) SetContext(ctx context.Context) { s.ctx = ctx }

// Canceled reports whether Run stopped early because its context was done.
func (s *SMP) Canceled() bool { return s.canceled }

// Run steps all cores to completion, or until the installed context is done
// (polled every cancelCheckMask+1 SMP steps, like Core.Run).
func (s *SMP) Run() {
	if s.ctx == nil {
		for s.Step() {
		}
		return
	}
	done := s.ctx.Done()
	for n := uint(1); s.Step(); n++ {
		if n&cancelCheckMask == 0 {
			select {
			case <-done:
				s.canceled = true
				return
			default:
			}
		}
	}
}
