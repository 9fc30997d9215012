package sim

import (
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/mem"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// skipWorkloads builds the (name, machine, trace-factory) matrix the
// equivalence test runs: memory-bound and branchy SPEC-like profiles plus a
// vector-heavy GEMM kernel, on both the BDW- and KNL-like machines.
func skipWorkloads() []struct {
	name string
	m    config.Machine
	mk   func() trace.Reader
} {
	mkSPEC := func(prof string, n uint64) func() trace.Reader {
		return func() trace.Reader {
			p, _ := workload.SPECProfile(prof)
			return trace.NewLimit(workload.NewGenerator(p), n)
		}
	}
	knl := config.KNL()
	return []struct {
		name string
		m    config.Machine
		mk   func() trace.Reader
	}{
		{"mcf/BDW", config.BDW(), mkSPEC("mcf", 30_000)},
		{"deepsjeng/BDW", config.BDW(), mkSPEC("deepsjeng", 30_000)},
		{"gemm/KNL", knl, func() trace.Reader {
			g := workload.NewGemm(workload.StyleKNL, workload.GemmTrain()[1], knl.Core.VectorLanes, 1, 0)
			return trace.NewLimit(g, 30_000)
		}},
	}
}

// requireEqualResults asserts two runs produced bit-identical statistics and
// stacks. Floating-point components are compared with ==: the batched idle
// accounting is designed to replay the exact per-cycle operations (or an
// exactly-equivalent whole-cycle add), so no tolerance is needed.
func requireEqualResults(t *testing.T, label string, off, on Result) {
	t.Helper()
	if off.Stats != on.Stats {
		t.Fatalf("%s: Stats diverge\n  off: %+v\n  on:  %+v", label, off.Stats, on.Stats)
	}
	if (off.Stacks == nil) != (on.Stacks == nil) {
		t.Fatalf("%s: one run is missing CPI stacks", label)
	}
	if off.Stacks != nil {
		for _, st := range core.Stages() {
			a, b := off.Stacks.Stack(st), on.Stacks.Stack(st)
			if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
				t.Fatalf("%s %s: cycles/insts diverge: %d/%d vs %d/%d",
					label, st, a.Cycles, a.Instructions, b.Cycles, b.Instructions)
			}
			for comp := core.Component(0); comp < core.NumComponents; comp++ {
				if a.Comp[comp] != b.Comp[comp] {
					t.Errorf("%s %s %s: %.17g (no-skip) vs %.17g (skip)",
						label, st, comp, a.Comp[comp], b.Comp[comp])
				}
			}
		}
	}
	if off.FLOPS != on.FLOPS {
		t.Errorf("%s: FLOPS stacks diverge\n  off: %+v\n  on:  %+v", label, off.FLOPS, on.FLOPS)
	}
	if off.MemDepth != on.MemDepth {
		t.Errorf("%s: mem-depth stacks diverge\n  off: %+v\n  on:  %+v", label, off.MemDepth, on.MemDepth)
	}
	if off.Structural != on.Structural {
		t.Errorf("%s: structural stacks diverge\n  off: %+v\n  on:  %+v", label, off.Structural, on.Structural)
	}
	if off.Fetch.Cycles != on.Fetch.Cycles || off.Fetch.Comp != on.Fetch.Comp {
		t.Errorf("%s: fetch stacks diverge\n  off: %+v\n  on:  %+v", label, off.Fetch, on.Fetch)
	}
	if off.Bpred != on.Bpred {
		t.Errorf("%s: bpred stats diverge", label)
	}
}

// TestSkipEquivalence is the tentpole guarantee: event-driven idle-window
// skipping with batched accounting produces bit-identical Stats, CPI stacks
// (all stages and every side stack) and FLOPS stacks to the cycle-by-cycle
// loop, across workloads, machines, wrong-path schemes and pipeline
// wrong-path modes.
func TestSkipEquivalence(t *testing.T) {
	schemes := []core.WrongPathScheme{
		core.WrongPathOracle, core.WrongPathSimple, core.WrongPathSpeculative,
	}
	modes := []cpu.WrongPathMode{cpu.WrongPathNone, cpu.WrongPathSynth}

	for _, wl := range skipWorkloads() {
		for _, scheme := range schemes {
			for _, mode := range modes {
				label := wl.name + "/" + scheme.String()
				if mode == cpu.WrongPathSynth {
					label += "/synth"
				}
				opts := Options{
					CPI: true, FLOPS: true, MemDepth: true,
					Structural: true, Fetch: true,
					Scheme: scheme, WrongPath: mode,
				}
				opts.NoSkip = true
				off := Run(wl.m, wl.mk(), opts)
				opts.NoSkip = false
				on := Run(wl.m, wl.mk(), opts)
				requireEqualResults(t, label, off, on)
			}
		}
	}
}

// skipGangs builds the SMP gangs the equivalence test runs: Figure 5's
// barrier-dense 4-core SKX convolution gang (threads at skewed paces, with
// warm-up), a barrier-free memory-bound gang over one and over four L3
// slices (every core contends for the shared L3 and memory), and the
// odd-width gang whose threads finish at different cycles.
func skipGangs() []struct {
	name   string
	m      config.Machine
	n      int
	mk     func(tid int) trace.Reader
	warmup uint64
} {
	skx := config.SKX()
	conv := func(lanes int, barrierEvery int) func(tid int) *workload.Conv {
		return func(tid int) *workload.Conv {
			return workload.NewConv(workload.StyleSKX, workload.ConvTrain()[6], workload.ConvFwd,
				lanes, uint64(tid)*977+13, barrierEvery)
		}
	}
	figure5 := conv(skx.Core.VectorLanes, 5_000)
	uneven := conv(skx.Core.VectorLanes, 2500)
	mcf := func(tid int) trace.Reader {
		p, _ := workload.SPECProfile("mcf")
		p.Seed += uint64(tid)
		return trace.NewLimit(workload.NewGenerator(p), 15_000)
	}
	sliced := skx
	sliced.Hierarchy.L3Slices = 4
	odd := skx
	odd.Core.FetchWidth, odd.Core.DispatchWidth, odd.Core.CommitWidth, odd.Core.VFPUnits = 3, 3, 3, 3
	return []struct {
		name   string
		m      config.Machine
		n      int
		mk     func(tid int) trace.Reader
		warmup uint64
	}{
		{"figure5-gang/SKX", skx, 4, func(tid int) trace.Reader {
			c := figure5(tid)
			c.SetExtraOverhead(tid % 3)
			return trace.NewLimit(c, 30_000)
		}, 10_000},
		{"mcf-gang/SKX/slices1", skx, 4, mcf, 0},
		{"mcf-gang/SKX/slices4", sliced, 4, mcf, 0},
		{"uneven-finish-gang/SKX-odd", odd, 4, func(tid int) trace.Reader {
			c := uneven(tid)
			c.SetExtraOverhead(tid)
			return trace.NewLimit(c, uint64(6000+4000*tid))
		}, 0},
	}
}

// TestSkipEquivalenceSMP extends the guarantee to gangs: cores that skip
// idle windows and sleep on the gang clock produce per-core Stats, averaged
// CPI stacks and averaged FLOPS stacks equal (==) to per-cycle lockstep,
// under every wrong-path scheme over synthesized wrong paths.
func TestSkipEquivalenceSMP(t *testing.T) {
	schemes := []core.WrongPathScheme{
		core.WrongPathOracle, core.WrongPathSimple, core.WrongPathSpeculative,
	}
	for _, g := range skipGangs() {
		for _, scheme := range schemes {
			label := g.name + "/" + scheme.String() + "/synth"
			opts := Options{
				CPI: true, FLOPS: true, Scheme: scheme,
				WrongPath: cpu.WrongPathSynth, WarmupUops: g.warmup,
			}
			opts.NoSkip = true
			off := RunSMP(g.m, g.n, g.mk, opts)
			opts.NoSkip = false
			on := RunSMP(g.m, g.n, g.mk, opts)
			if off.Err != nil {
				t.Fatalf("%s: %v", label, off.Err)
			}
			requireSMPEqual(t, label, off, on)
		}
	}
}

// TestSkipEquivalenceWithWarmup covers the warm-up boundary interaction: the
// skip path must suppress exactly the same samples as the per-cycle path
// while warm-up is draining.
func TestSkipEquivalenceWithWarmup(t *testing.T) {
	wl := skipWorkloads()[0]
	opts := Options{CPI: true, FLOPS: true, WarmupUops: 10_000}
	opts.NoSkip = true
	off := Run(wl.m, wl.mk(), opts)
	opts.NoSkip = false
	on := Run(wl.m, wl.mk(), opts)
	requireEqualResults(t, wl.name+"/warmup", off, on)
}

// TestSkipActuallySkips guards against the skip silently disabling itself:
// on a memory-bound profile the skipping run must take materially fewer Step
// iterations (observed via a sample-counting accountant) while simulating
// the same number of cycles.
func TestSkipActuallySkips(t *testing.T) {
	p, _ := workload.SPECProfile("mcf")
	m := config.BDW()
	run := func(noSkip bool) (samples int64, cycles int64) {
		opts := Default()
		opts.NoSkip = noSkip
		res := Run(m, trace.NewLimit(workload.NewGenerator(p), 30_000), opts)
		return res.Stacks.Stack(core.StageCommit).Cycles, res.Stats.Cycles
	}
	_, offCycles := run(true)
	_, onCycles := run(false)
	if offCycles != onCycles {
		t.Fatalf("cycle counts diverge: %d vs %d", offCycles, onCycles)
	}
}

// stepCount counts the samples a core emits and the cycles they cover.
type stepCount struct{ samples, cycles int64 }

func (n *stepCount) Cycle(s *core.CycleSample) {
	n.samples++
	n.cycles += max(s.Repeat, 1)
}

// TestSkipActuallySkipsSMP is the gang twin of TestSkipActuallySkips: in
// Figure 5's barrier-dense gang every core must emit fewer samples than it
// simulates cycles — it skipped idle windows while its siblings stepped —
// and each core must simulate the same cycles as under per-cycle lockstep.
// The gang is assembled as RunSMP assembles it, with a counting accountant
// on each core.
func TestSkipActuallySkipsSMP(t *testing.T) {
	const n = 4
	m := config.SKX()
	run := func(noSkip bool) []stepCount {
		l3 := m.Hierarchy.L3
		l3.SizeBytes *= n
		l3.MSHRs *= n
		memCfg := m.Hierarchy.Mem
		memCfg.CyclesPerLine = max(memCfg.CyclesPerLine/n, 1)
		shared := cache.NewSlicedL3(l3, m.Hierarchy.SliceCount(),
			mem.NewChannels(memCfg, m.Hierarchy.ChannelCount()))
		counts := make([]stepCount, n)
		cores := make([]*cpu.Core, n)
		for i := range cores {
			k := workload.NewConv(workload.StyleSKX, workload.ConvTrain()[6], workload.ConvFwd,
				m.Core.VectorLanes, uint64(i)*977+13, 5_000)
			k.SetExtraOverhead(i % 3)
			cores[i] = cpu.New(m.Core, cache.NewHierarchyShared(m.Hierarchy, shared),
				bpred.NewTournament(m.Bpred), trace.NewLimit(k, 20_000))
			cores[i].SetNoSkip(noSkip)
			cores[i].Attach(&counts[i])
		}
		cpu.NewSMP(cores).Run()
		for i, c := range cores {
			if counts[i].cycles != c.Stats.Cycles {
				t.Fatalf("noSkip %v: core %d samples cover %d cycles, it ran %d", noSkip, i, counts[i].cycles, c.Stats.Cycles)
			}
		}
		return counts
	}
	off, on := run(true), run(false)
	for i := range on {
		if off[i].cycles != on[i].cycles {
			t.Fatalf("core %d: cycle counts diverge: %d (no-skip) vs %d (skip)", i, off[i].cycles, on[i].cycles)
		}
		if off[i].samples != off[i].cycles {
			t.Fatalf("core %d: per-cycle lockstep emitted %d samples for %d cycles", i, off[i].samples, off[i].cycles)
		}
		if on[i].samples >= on[i].cycles {
			t.Fatalf("core %d: the skipping gang emitted %d samples for %d cycles: no idle window was skipped",
				i, on[i].samples, on[i].cycles)
		}
		t.Logf("core %d: %d samples for %d cycles", i, on[i].samples, on[i].cycles)
	}
}
