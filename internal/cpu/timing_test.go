package cpu

import (
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/trace"
)

// TestPerOpTiming drives every trace.Op through the static latency table
// and the port claim. Each Lat field holds a distinct value, so a dropped
// or merged arm in Params.latency returns another op's latency; portFree
// must claim exactly one unit of the op's class, and refuse the op once
// that class is full. The op set ends where trace.Op.String falls back,
// so an op added without a row here fails too.
func TestPerOpTiming(t *testing.T) {
	p := tinyParams()
	p.Lat = Latencies{
		ALU: 2, Mul: 3, Div: 5, Branch: 7, FPAdd: 11, FPMul: 13,
		FPDiv: 17, FMA: 19, VInt: 23, Broadcast: 29, Store: 31,
	}
	onALU, onMulDiv := portsInUse{alu: 1}, portsInUse{muldiv: 1}
	onLoad, onStore, onVFP := portsInUse{load: 1}, portsInUse{store: 1}, portsInUse{vfp: 1}
	want := map[trace.Op]struct {
		lat   int64
		ports portsInUse
	}{
		trace.OpNop:       {2, onALU},
		trace.OpALU:       {2, onALU},
		trace.OpMul:       {3, onMulDiv},
		trace.OpDiv:       {5, onMulDiv},
		trace.OpBranch:    {7, onALU},
		trace.OpCall:      {7, onALU},
		trace.OpRet:       {7, onALU},
		trace.OpLoad:      {1, onLoad}, // the hierarchy supplies the rest
		trace.OpStore:     {31, onStore},
		trace.OpFPAdd:     {11, onVFP},
		trace.OpFPMul:     {13, onVFP},
		trace.OpFPDiv:     {17, onVFP},
		trace.OpFMA:       {19, onVFP},
		trace.OpVInt:      {23, onVFP},
		trace.OpBroadcast: {29, onLoad},
		trace.OpBarrier:   {1, onALU},
	}
	full := portsInUse{alu: p.IntALUs, muldiv: p.IntMulDivs, load: p.LoadPorts, store: p.StorePorts, vfp: p.VFPUnits}

	c := New(p, tinyHier(), bpred.Perfect{}, trace.NewSlice(nil))
	ops := 0
	for op := trace.Op(0); op.String() != "op?"; op++ {
		ops++
		w, ok := want[op]
		if !ok {
			t.Errorf("%v (op %d) has no row in the timing table", op, op)
			continue
		}
		if got := p.latency(op); got != w.lat {
			t.Errorf("latency(%v) = %d, want %d", op, got, w.lat)
		}
		var ports portsInUse
		if !c.portFree(&ports, op) || ports != w.ports {
			t.Errorf("portFree(%v) on idle ports claimed %+v, want %+v", op, ports, w.ports)
		}
		busy := full
		if c.portFree(&busy, op) {
			t.Errorf("portFree(%v) issued with every port class full", op)
		}
	}
	if ops != len(want) {
		t.Errorf("walked %d ops, the table has %d rows", ops, len(want))
	}
	if got := c.divBusyUntil[0]; got != c.now+p.Lat.Div {
		t.Errorf("divide claim left the divider busy until %d, want %d", got, c.now+p.Lat.Div)
	}

	// The single-cycle-ALU idealization leaves memory ops and branches
	// at their own latency and makes everything else one cycle.
	p.SingleCycleALU = true
	for op, w := range want {
		lat := int64(1)
		if op.IsMem() || op.IsBranch() {
			lat = w.lat
		}
		if got := p.latency(op); got != lat {
			t.Errorf("SingleCycleALU latency(%v) = %d, want %d", op, got, lat)
		}
	}
}
