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
