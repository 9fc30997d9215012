//go:build simdebug

package cpu

import (
	"math"
	"strings"
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/invariant"
	"perfstacks/internal/trace"
)

// TestDroppedCalendarEventPanics is the designed negative test of the
// calendar's cross-check: a lone load misses to memory, and once its
// completion is on the calendar the event is dropped. The next idle cycle's
// jump target then lies past the load's completion, which the reference
// walk of the event sources (the ROB head) still sees.
func TestDroppedCalendarEventPanics(t *testing.T) {
	load := trace.Uop{Seq: 0, PC: 0x1000, Op: trace.OpLoad, Addr: 0x40000000,
		Src: [3]uint64{trace.NoProducer, trace.NoProducer, trace.NoProducer}}
	c := New(tinyParams(), tinyHier(), bpred.Perfect{}, trace.NewSlice([]trace.Uop{load}))
	for c.cal.next() == math.MaxInt64 {
		if !c.Step() {
			t.Fatal("the load committed before its completion reached the calendar")
		}
	}
	done := c.cal.next()
	if done <= c.now+1 {
		t.Fatalf("the load completes at %d, cycle %d: no idle window to check", done, c.now)
	}
	c.cal.when.clear(int(done) & calMask)

	defer func() {
		r := recover()
		v, ok := r.(*invariant.Violation)
		if !ok {
			t.Fatalf("stepping with a dropped event: recovered %v, want an invariant violation", r)
		}
		if !strings.Contains(v.Msg, "calendar's next event") {
			t.Fatalf("violation %q does not concern the calendar's next event", v.Msg)
		}
	}()
	for c.now < done {
		c.Step()
	}
}

// requireProgressViolation runs step, which must panic with the forward
// progress violation within limit calls, instead of stepping forever.
func requireProgressViolation(t *testing.T, limit int64, step func()) {
	t.Helper()
	defer func() {
		r := recover()
		v, ok := r.(*invariant.Violation)
		if !ok {
			t.Fatalf("stepping with a held ROB head: recovered %v, want an invariant violation", r)
		}
		if !strings.Contains(v.Msg, "no uop committed") {
			t.Fatalf("violation %q does not concern forward progress", v.Msg)
		}
	}()
	for n := int64(0); n < limit; n++ {
		step()
	}
}

// TestHeldROBHeadPanics is the designed negative test of the progress
// check: a core whose ROB head never completes stops committing, and
// stepping it must fail with a violation rather than hang.
func TestHeldROBHeadPanics(t *testing.T) {
	uops := make([]trace.Uop, 8)
	for i := range uops {
		uops[i] = alu(uint64(i))
	}
	p := tinyParams()
	c := New(p, tinyHier(), bpred.Perfect{}, trace.NewSlice(uops))
	requireProgressViolation(t, 4*p.progressBound(), func() {
		c.HoldROBHead()
		c.Step()
	})
	if c.Stats.Committed != 0 {
		t.Fatalf("%d uops committed behind a held head", c.Stats.Committed)
	}
}

// TestHeldROBHeadPanicsInGang: a gang whose member stops committing fails
// the same way while its sibling waits at the barrier.
func TestHeldROBHeadPanicsInGang(t *testing.T) {
	mk := func() []trace.Uop {
		var uops []trace.Uop
		for i := 0; i < 20; i++ {
			uops = append(uops, alu(uint64(i)))
		}
		return append(uops, trace.Uop{Seq: 20, PC: 0x2000, Op: trace.OpBarrier,
			Src: [3]uint64{trace.NoProducer, trace.NoProducer, trace.NoProducer}}, alu(21))
	}
	p := tinyParams()
	cores := []*Core{
		New(p, tinyHier(), bpred.Perfect{}, trace.NewSlice(mk())),
		New(p, tinyHier(), bpred.Perfect{}, trace.NewSlice(mk())),
	}
	smp := NewSMP(cores)
	requireProgressViolation(t, 4*p.progressBound(), func() {
		if cores[0].Stats.Committed == 10 {
			cores[0].HoldROBHead()
		}
		smp.Step()
	})
	if !cores[1].Yielded() {
		t.Fatal("the healthy core should wait at the barrier")
	}
}
