package trace

import (
	"testing"
	"testing/quick"
)

// TestOpStrings requires every op to render a distinct, non-fallback name:
// traces and tracegen -inspect report ops by name, and the cpu timing tests
// walk the op set up to the fallback.
func TestOpStrings(t *testing.T) {
	seen := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		s := op.String()
		if s == "" || s == "op?" {
			t.Errorf("op %d has no name", op)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("op %d name %q duplicates op %d", op, s, prev)
		}
		seen[s] = op
	}
	if Op(200).String() != "op?" {
		t.Error("out-of-range op should render as op?")
	}
}

func TestIsVFP(t *testing.T) {
	vfp := map[Op]bool{OpFPAdd: true, OpFPMul: true, OpFMA: true}
	for op := Op(0); op < numOps; op++ {
		if got := op.IsVFP(); got != vfp[op] {
			t.Errorf("%v.IsVFP() = %v, want %v", op, got, vfp[op])
		}
	}
}

func TestUsesVectorUnitExcludesBroadcast(t *testing.T) {
	if OpBroadcast.UsesVectorUnit() {
		t.Error("broadcast should execute on the load/shuffle ports, not the vector FP unit")
	}
	for _, op := range []Op{OpFPAdd, OpFPMul, OpFPDiv, OpFMA, OpVInt} {
		if !op.UsesVectorUnit() {
			t.Errorf("%v should use the vector unit", op)
		}
	}
}

func TestIsMemAndIsBranch(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() {
		t.Error("loads and stores are memory ops")
	}
	if OpALU.IsMem() {
		t.Error("ALU is not a memory op")
	}
	for _, op := range []Op{OpBranch, OpCall, OpRet} {
		if !op.IsBranch() {
			t.Errorf("%v should be a branch", op)
		}
	}
	if OpLoad.IsBranch() {
		t.Error("load is not a branch")
	}
}

func TestFLOPsPerLane(t *testing.T) {
	cases := []struct {
		op   Op
		want int
	}{
		{OpFMA, 2}, {OpFPAdd, 1}, {OpFPMul, 1},
		{OpFPDiv, 0}, {OpALU, 0}, {OpLoad, 0}, {OpVInt, 0}, {OpBroadcast, 0},
	}
	for _, c := range cases {
		if got := c.op.FLOPsPerLane(); got != c.want {
			t.Errorf("%v.FLOPsPerLane() = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestActiveLanesAndFLOPs(t *testing.T) {
	u := Uop{Op: OpFMA, VecLanes: 16, MaskedLanes: 6}
	if got := u.ActiveLanes(); got != 10 {
		t.Fatalf("ActiveLanes = %d, want 10", got)
	}
	if got := u.FLOPs(); got != 20 {
		t.Fatalf("FLOPs = %d, want 20", got)
	}
	// Over-masking clamps to zero.
	u.MaskedLanes = 20
	if got := u.ActiveLanes(); got != 0 {
		t.Fatalf("over-masked ActiveLanes = %d, want 0", got)
	}
}

func TestActiveLanesNeverNegative(t *testing.T) {
	f := func(lanes, masked uint8) bool {
		u := Uop{Op: OpFMA, VecLanes: lanes, MaskedLanes: masked}
		return u.ActiveLanes() >= 0 && u.FLOPs() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSliceAssignsSeq(t *testing.T) {
	s := NewSlice(make([]Uop, 5))
	for i := 0; i < 5; i++ {
		u, ok := s.Next()
		if !ok {
			t.Fatal("slice ended early")
		}
		if u.Seq != uint64(i) {
			t.Fatalf("uop %d has Seq %d", i, u.Seq)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("slice should be exhausted")
	}
}

func TestSlicePreservesExplicitSeq(t *testing.T) {
	s := NewSlice([]Uop{{Seq: 0}, {Seq: 7}, {Seq: 9}})
	s.Next()
	u, _ := s.Next()
	if u.Seq != 7 {
		t.Fatalf("explicit Seq overwritten: got %d", u.Seq)
	}
}

func TestSliceReset(t *testing.T) {
	s := NewSlice(make([]Uop, 3))
	s.Next()
	s.Next()
	s.Reset()
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("after Reset read %d uops, want 3", n)
	}
}

func TestLimitTruncates(t *testing.T) {
	s := NewSlice(make([]Uop, 10))
	l := NewLimit(s, 4)
	n := 0
	for {
		if _, ok := l.Next(); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("limit yielded %d uops, want 4", n)
	}
}

func TestLimitShortSource(t *testing.T) {
	l := NewLimit(NewSlice(make([]Uop, 2)), 10)
	n := 0
	for {
		if _, ok := l.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("limit yielded %d uops, want 2 (source exhausted)", n)
	}
}

func TestCounterCountsFLOPs(t *testing.T) {
	uops := []Uop{
		{Op: OpFMA, VecLanes: 8},   // 16 FLOPs
		{Op: OpFPAdd, VecLanes: 4}, // 4
		{Op: OpALU},                // 0
	}
	c := &Counter{R: NewSlice(uops)}
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if c.Uops != 3 {
		t.Fatalf("counted %d uops, want 3", c.Uops)
	}
	if c.FLOPs != 20 {
		t.Fatalf("counted %d FLOPs, want 20", c.FLOPs)
	}
}
