package cpu_test

import (
	"bytes"
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/invariant"
	"perfstacks/internal/mem"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// benchCore builds a warmed-up core streaming independent ALU uops. The
// warm-up steps grow the amortized staging buffers to their steady-state
// capacity so the timed region measures the true per-cycle cost.
func benchCore() *cpu.Core {
	m := config.BDW()
	hier := cache.NewHierarchy(m.Hierarchy)
	c := cpu.New(m.Core, hier, bpred.Perfect{}, linearTrace(1<<15))
	acct := core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth()})
	c.Attach(acct)
	for i := 0; i < 1024; i++ {
		c.Step()
	}
	return c
}

// BenchmarkCoreStep times the bare per-cycle Step loop on an independent
// ALU stream; it runs at 0 allocs/op, which TestHotPathZeroAlloc gates.
// Core construction and trace refill happen off the clock.
// (BenchmarkSimulatorThroughput at the repo root measures the same loop
// end-to-end through sim.Run, including amortized setup.)
func BenchmarkCoreStep(b *testing.B) {
	c := benchCore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Step() {
			b.StopTimer()
			c = benchCore()
			b.StartTimer()
		}
	}
}

// BenchmarkCoreStepMemBound is BenchmarkCoreStep on the memory-bound mcf
// profile on BDW. Its reservation stations fill with entries waiting on
// cache misses, so it measures the select walk, the wakeups and the
// completion calendar, which the independent ALU stream of
// BenchmarkCoreStep never exercises: there no RS entry is ever non-ready.
func BenchmarkCoreStepMemBound(b *testing.B) {
	uops := genTrace(b, "mcf", 200_000)
	m := config.BDW()
	warm := func() *cpu.Core {
		c := cpu.New(m.Core, cache.NewHierarchy(m.Hierarchy), bpred.NewTournament(m.Bpred), trace.NewSlice(uops))
		c.Attach(core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth()}))
		for i := 0; i < 20_000; i++ {
			c.Step()
		}
		return c
	}
	c := warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Step() {
			b.StopTimer()
			c = warm()
			b.StartTimer()
		}
	}
}

// TestHotPathZeroAlloc is the hot path's allocation gate: once a machine is
// warm, 1000 steps allocate nothing — not Core.Step with its staging,
// wakeup, squash and calendar bookkeeping, not the cache and memory walk
// under it, not the trace readers that refill it, and not the five
// accountants' Cycle methods. Each cell drives one real source chain:
//
//   - SPEC-like profiles stream through FileReader → Limit → Counter, so
//     each wrapping reader's ReadBatch is on the path. The chain is handed
//     to the core as a batchOnly, whose Next panics: the core must ingest
//     through ReadBatch, never one uop per interface call. The branchy
//     profile runs with synthesized wrong paths under a real predictor and
//     each wrong-path scheme, so the window holds mispredicts and their
//     squashes; the memory-bound profile queues misses far enough out that
//     the window holds completion-calendar events beyond the wheel, in the
//     overflow list.
//   - A GEMM kernel and the SMP gang's conv kernels are each wrapped
//     directly in a batchOnly, so they must generate in bulk.
//   - One GEMM cell hides the kernel's ReadBatch, so the core reads it
//     through the generic scalar-to-batch adapter.
//   - An in-memory Slice feeds a Step-only cell.
//   - A 4-core SMP gang steps over a 4-slice shared L3.
//
// Traces are generated before the clock: the generators' lazily built
// tables are not the hot path's to account. Under simdebug the accountants'
// assertions box their arguments, so cells with accountants skip there and
// the Step-only cell still runs.
func TestHotPathZeroAlloc(t *testing.T) {
	files := map[string][]byte{}
	fileChain := func(t *testing.T, profile string) trace.Reader {
		b, ok := files[profile]
		if !ok {
			b = encodeTrace(t, profile, hotUops)
			files[profile] = b
		}
		fr, err := trace.NewFileReader(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return batchOnly{&trace.Counter{R: trace.NewLimit(fr, hotUops)}}
	}
	spec := func(profile string, m config.Machine, wp cpu.WrongPathMode, scheme core.WrongPathScheme) func(*testing.T, *sampleCount) ([]*cpu.Core, func() bool) {
		return func(t *testing.T, sink *sampleCount) ([]*cpu.Core, func() bool) {
			m.Core.WrongPath = wp
			c := hotCore(m, cache.NewHierarchy(m.Hierarchy), fileChain(t, profile), scheme, sink)
			return []*cpu.Core{c}, c.Step
		}
	}
	// gemm builds an SKX GEMM cell whose kernel reaches the core through
	// wrap.
	gemm := func(wrap func(*workload.Gemm) trace.Reader) func(*testing.T, *sampleCount) ([]*cpu.Core, func() bool) {
		return func(t *testing.T, sink *sampleCount) ([]*cpu.Core, func() bool) {
			m := config.SKX()
			g := workload.NewGemm(workload.StyleSKX, workload.GemmTrain()[0], m.Core.VectorLanes, 1, 0)
			c := hotCore(m, cache.NewHierarchy(m.Hierarchy), wrap(g), core.WrongPathOracle, sink)
			return []*cpu.Core{c}, c.Step
		}
	}
	cells := []struct {
		name  string
		build func(*testing.T, *sampleCount) ([]*cpu.Core, func() bool)
		// stepOnly cells attach only the sample counter.
		stepOnly, squash, spill bool
	}{
		{name: "deepsjeng-BDW-oracle", build: spec("deepsjeng", config.BDW(), cpu.WrongPathSynth, core.WrongPathOracle), squash: true},
		{name: "deepsjeng-KNL-simple", build: spec("deepsjeng", config.KNL(), cpu.WrongPathSynth, core.WrongPathSimple), squash: true},
		{name: "deepsjeng-SKX-speculative", build: spec("deepsjeng", config.SKX(), cpu.WrongPathSynth, core.WrongPathSpeculative), squash: true},
		{name: "mcf-BDW", build: spec("mcf", config.BDW(), cpu.WrongPathNone, core.WrongPathOracle), spill: true},
		{name: "gcc-1-BDW", build: spec("gcc-1", config.BDW(), cpu.WrongPathNone, core.WrongPathOracle)},
		{name: "lbm-KNL", build: spec("lbm", config.KNL(), cpu.WrongPathNone, core.WrongPathOracle)},
		{name: "gemm-SKX", build: gemm(func(g *workload.Gemm) trace.Reader {
			return batchOnly{g}
		})},
		{name: "gemm-SKX-adapter", build: gemm(func(g *workload.Gemm) trace.Reader {
			return struct{ trace.Reader }{g}
		})},
		{name: "mcf-KNL-slice", stepOnly: true, spill: true, build: func(t *testing.T, sink *sampleCount) ([]*cpu.Core, func() bool) {
			m := config.KNL()
			c := cpu.New(m.Core, cache.NewHierarchy(m.Hierarchy), bpred.NewTournament(m.Bpred),
				trace.NewSlice(genTrace(t, "mcf", hotUops)))
			c.Attach(sink)
			return []*cpu.Core{c}, c.Step
		}},
		{name: "conv-smp4-SKX-slices4", build: func(t *testing.T, sink *sampleCount) ([]*cpu.Core, func() bool) {
			const n = 4
			m := config.SKX()
			m.Hierarchy.L3Slices = 4
			l3 := m.Hierarchy.L3
			l3.SizeBytes *= n
			l3.MSHRs *= n
			shared := cache.NewSlicedL3(l3, m.Hierarchy.SliceCount(), mem.NewChannels(m.Hierarchy.Mem, m.Hierarchy.ChannelCount()))
			cores := make([]*cpu.Core, n)
			for i := range cores {
				conv := workload.NewConv(workload.StyleSKX, workload.ConvTrain()[6], workload.ConvFwd,
					m.Core.VectorLanes, uint64(i)*977+13, 5_000)
				conv.SetExtraOverhead(i % 3)
				cores[i] = hotCore(m, cache.NewHierarchyShared(m.Hierarchy, shared),
					batchOnly{conv}, core.WrongPathOracle, sink)
			}
			return cores, cpu.NewSMP(cores).Step
		}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			if invariant.Enabled && !cell.stepOnly {
				t.Skip("simdebug assertions box the accountants' arguments")
			}
			var sink sampleCount
			cores, step := cell.build(t, &sink)
			for i := 0; i < 20_000; i++ {
				step()
			}
			squashed := func() (n uint64) {
				for _, c := range cores {
					n += c.Stats.SquashedUops
				}
				return n
			}
			before := squashed()
			// spilled records whether a step grew a core's overflow list.
			over, spilled := make([]int, len(cores)), false
			for i, c := range cores {
				over[i] = c.CalendarOverflow()
			}
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 1000; i++ {
					if !step() {
						t.Fatal("trace drained inside the measured window")
					}
					for i, c := range cores {
						n := c.CalendarOverflow()
						spilled = spilled || n > over[i]
						over[i] = n
					}
				}
			})
			if allocs != 0 {
				t.Errorf("the hot path allocates: %v allocs per 1000 steps", allocs)
			}
			if sink == 0 {
				t.Error("no samples emitted")
			}
			if cell.squash && squashed() == before {
				t.Error("the measured window holds no wrong-path squash")
			}
			if cell.spill && !spilled {
				t.Error("the measured window holds no calendar overflow event")
			}
		})
	}
}

// batchOnly is a trace source the core may read only in batches: its
// scalar Next panics, so a per-uop refill on the hot path fails the test.
type batchOnly struct{ trace.BatchReader }

func (batchOnly) Next() (trace.Uop, bool) {
	panic("scalar trace.Reader.Next on the cpu hot path; batch through ReadBatch")
}

// hotUops is the trace length of a TestHotPathZeroAlloc cell, enough for
// the warm-up and the measured window.
const hotUops = 150_000

// hotCore builds a core of machine m over tr with a tournament predictor,
// the sample counter and all five accountants attached; PendingBound is
// sim's bound for m.
func hotCore(m config.Machine, hier *cache.Hierarchy, tr trace.Reader, scheme core.WrongPathScheme, sink *sampleCount) *cpu.Core {
	c := cpu.New(m.Core, hier, bpred.NewTournament(m.Bpred), tr)
	c.Attach(sink)
	w := m.Core.MinWidth()
	c.Attach(core.NewMultiStageAccountant(core.Options{Width: w, Scheme: scheme,
		PendingBound: 32*m.Core.ROBSize + 8*m.Core.FEQueueSize + 16}))
	c.Attach(core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes))
	c.Attach(core.NewMemDepthAccountant(w))
	c.Attach(core.NewStructuralAccountant(w))
	c.Attach(core.NewFetchAccountant(w))
	return c
}

// encodeTrace generates n uops of a SPEC-like profile as a trace file image.
func encodeTrace(tb testing.TB, profile string, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := trace.Copy(w, trace.NewSlice(genTrace(tb, profile, n)), 0); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// genTrace generates n uops of a SPEC-like profile.
func genTrace(tb testing.TB, profile string, n int) []trace.Uop {
	tb.Helper()
	prof, ok := workload.SPECProfile(profile)
	if !ok {
		tb.Fatalf("unknown profile %s", profile)
	}
	uops := make([]trace.Uop, n)
	gen := workload.NewGenerator(prof)
	for i := range uops {
		if uops[i], ok = gen.Next(); !ok {
			tb.Fatal("generator drained")
		}
	}
	return uops
}

// sampleCount is an Accountant that only counts samples.
type sampleCount int

func (n *sampleCount) Cycle(*core.CycleSample) { *n++ }
