// Package perfstacks benchmarks every experiment behind the paper's tables
// and figures plus the hot substrate paths. One benchmark iteration runs the
// full experiment at a reduced (bench) sizing; regenerating the paper-scale
// artifacts is cmd/experiments' job.
//
//	go test -bench=. -benchmem
package perfstacks

import (
	"fmt"
	"testing"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/experiments"
	"perfstacks/internal/mem"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// benchSpec keeps experiment iterations around a second.
func benchSpec() experiments.RunSpec {
	return experiments.RunSpec{Uops: 20_000, Warmup: 10_000}
}

// --- One benchmark per paper artifact ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableI(benchSpec())
		if r.KNL.Rows[0].CPI <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1(benchSpec())
		if r.Stacks == nil {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2(benchSpec())
		if len(r.BDW.Components) == 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(benchSpec())
		if len(r.Cases) != 5 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4(benchSpec())
		if len(r.Suites) != 10 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5(benchSpec())
		if r.Real.MaxIPC == 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkWrongPathSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.WrongPath(benchSpec())
		if len(r.Schemes) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkAccountingOverhead quantifies the §IV claim directly: simulator
// throughput with accounting detached vs attached. Each sub-benchmark
// simulates b.N uops, so ns/op is per uop and the gap between the two is
// the accounting overhead per uop.
func BenchmarkAccountingOverhead(b *testing.B) {
	prof, _ := workload.SPECProfile("mcf")
	m := config.BDW()
	bench := func(b *testing.B, withAcct bool) {
		done := 0
		for done < b.N {
			b.StopTimer()
			n := uint64(b.N - done)
			if n > 500_000 {
				n = 500_000
			}
			hier := cache.NewHierarchy(m.Hierarchy)
			pred := bpred.NewTournament(m.Bpred)
			c := cpu.New(m.Core, hier, pred, trace.NewLimit(workload.NewGenerator(prof), n))
			if withAcct {
				c.Attach(core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth()}))
				c.Attach(core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes))
			}
			b.StartTimer()
			st := c.Run()
			done += int(st.Committed)
			if st.Committed == 0 {
				break
			}
		}
	}
	b.Run("without", func(b *testing.B) { bench(b, false) })
	b.Run("with", func(b *testing.B) { bench(b, true) })
}

// --- Substrate micro-benchmarks ---

func BenchmarkPipelineStep(b *testing.B) {
	prof, _ := workload.SPECProfile("exchange2")
	m := config.BDW()
	b.ReportAllocs()
	b.ResetTimer()
	uopsDone := 0
	for uopsDone < b.N {
		b.StopTimer()
		hier := cache.NewHierarchy(m.Hierarchy)
		c := cpu.New(m.Core, hier, bpred.Perfect{},
			trace.NewLimit(workload.NewGenerator(prof), uint64(b.N-uopsDone)))
		b.StartTimer()
		st := c.Run()
		uopsDone += int(st.Committed)
		if st.Committed == 0 {
			break
		}
	}
}

func BenchmarkAccountantCycle(b *testing.B) {
	a := core.NewMultiStageAccountant(core.Options{Width: 4})
	s := core.CycleSample{DispatchN: 3, IssueN: 2, CommitN: 4,
		FEEmpty: true, FECause: core.FEICache, FirstNonReadyClass: core.ProdDCache}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Cycle(&s)
	}
}

func BenchmarkFLOPSAccountantCycle(b *testing.B) {
	a := core.NewFLOPSAccountant(2, 16)
	s := core.CycleSample{VFPIssued: 1, VFPActiveLanes: 16, VFPFlops: 32,
		VFPInRS: true, OldestVFPClass: core.ProdDepend}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Cycle(&s)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := cache.New(cache.Config{Name: "L1", SizeBytes: 32 * 1024, Ways: 8, HitLatency: 4, MSHRs: 8},
		cache.MemLevel(mem.New(mem.Config{Latency: 100})))
	c.Access(cache.Request{Line: 1, At: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Request{Line: 1, At: int64(i) + 1000})
	}
}

func BenchmarkCacheMissChain(b *testing.B) {
	hier := cache.NewHierarchy(config.BDW().Hierarchy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hier.Data(uint64(i)*64+0x10000000, int64(i)*4, false)
	}
}

func BenchmarkBranchPredictor(b *testing.B) {
	p := bpred.NewTournament(bpred.DefaultConfig())
	u := trace.Uop{Op: trace.OpBranch, PC: 0x1000, Target: 0x2000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Taken = i%3 == 0
		u.PC = 0x1000 + uint64(i%512)*4
		p.Lookup(&u)
	}
}

func BenchmarkSPECGenerator(b *testing.B) {
	prof, _ := workload.SPECProfile("mcf")
	g := workload.NewGenerator(prof)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkTraceGeneration compares the scalar and batched generator paths
// head to head: per-uop Next dispatch vs bulk ReadBatch into a reusable
// buffer (the frontend's ingestion pattern). The streams are bit-identical
// (see workload.TestGeneratorBatchScalarEquivalence); the gap is pure
// per-call overhead.
func BenchmarkTraceGeneration(b *testing.B) {
	prof, _ := workload.SPECProfile("mcf")
	b.Run("scalar", func(b *testing.B) {
		g := workload.NewGenerator(prof)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Next()
		}
	})
	b.Run("batch", func(b *testing.B) {
		g := workload.NewGenerator(prof)
		buf := make([]trace.Uop, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			done += g.ReadBatch(buf)
		}
	})
}

// BenchmarkBatchIngest measures the full batched ingestion stack as the
// simulator consumes it — generator under Limit under ReadBatch — for the
// batch sizes of interest, plus the generic scalar-to-batch adapter as the
// degenerate baseline.
func BenchmarkBatchIngest(b *testing.B) {
	prof, _ := workload.SPECProfile("mcf")
	for _, bs := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			tr := trace.NewLimit(workload.NewGenerator(prof), uint64(b.N))
			buf := make([]trace.Uop, bs)
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				n := tr.ReadBatch(buf)
				if n == 0 {
					break
				}
				done += n
			}
			if done != b.N {
				b.Fatalf("ingested %d of %d uops", done, b.N)
			}
		})
	}
	b.Run("scalar-adapter", func(b *testing.B) {
		// Force the generic AsBatch shim by hiding the generator's ReadBatch.
		tr := trace.AsBatch(struct{ trace.Reader }{
			trace.NewLimit(workload.NewGenerator(prof), uint64(b.N)),
		})
		buf := make([]trace.Uop, 256)
		b.ReportAllocs()
		b.ResetTimer()
		done := 0
		for done < b.N {
			n := tr.ReadBatch(buf)
			if n == 0 {
				break
			}
			done += n
		}
	})
}

// BenchmarkKernelGenerator compares the DeepBench kernels' scalar and
// batched paths, as BenchmarkTraceGeneration does for the synthetic
// generator: per-uop Next against ReadBatch generating in place into a
// reusable buffer. The streams are bit-identical (see
// workload.TestKernelBatchScalarEquivalence).
func BenchmarkKernelGenerator(b *testing.B) {
	kernels := []struct {
		name string
		mk   func() trace.BatchReader
	}{
		{"gemm", func() trace.BatchReader {
			return workload.NewGemm(workload.StyleKNL, workload.GemmTrain()[0], 16, 1, 0)
		}},
		{"conv", func() trace.BatchReader {
			return workload.NewConv(workload.StyleSKX, workload.ConvTrain()[6], workload.ConvFwd, 16, 1, 0)
		}},
	}
	for _, k := range kernels {
		b.Run(k.name+"/scalar", func(b *testing.B) {
			g := k.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
		b.Run(k.name+"/batch", func(b *testing.B) {
			g := k.mk()
			buf := make([]trace.Uop, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				done += g.ReadBatch(buf[:min(len(buf), b.N-done)])
			}
		})
	}
}

// BenchmarkStallSkipping measures the event-driven idle-window skipper:
// the same memory-bound workload with skipping enabled (default) vs forced
// per-cycle iteration (sim.Options.NoSkip). The ratio of the two ns/op
// numbers is the skipping speedup; results are bit-identical either way
// (see sim.TestSkipEquivalence).
func BenchmarkStallSkipping(b *testing.B) {
	prof, _ := workload.SPECProfile("mcf")
	m := config.BDW()
	run := func(b *testing.B, noSkip bool) {
		done := 0
		for done < b.N {
			opts := sim.Default()
			opts.NoSkip = noSkip
			n := uint64(b.N - done)
			if n > 500_000 {
				n = 500_000
			}
			res := sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), n), opts)
			done += int(res.Stats.Committed)
			if res.Stats.Committed == 0 {
				break
			}
		}
	}
	b.Run("skip", func(b *testing.B) { run(b, false) })
	b.Run("noskip", func(b *testing.B) { run(b, true) })
}

// BenchmarkSMPThroughput tracks socket-scale simulation cost: a DeepBench
// conv gang at 2, 8 and 18 cores, barrier-dense (Figure 5's Unsched-heavy
// shape) and barrier-free, the latter over a monolithic and a 4-slice
// shared L3. b.N counts committed uops summed across the gang, so ns/op is
// directly comparable to BenchmarkSimulatorThroughput.
func BenchmarkSMPThroughput(b *testing.B) {
	m := config.SKX()
	variants := []struct {
		name    string
		barrier int
		slices  int
	}{
		{"barrier-dense", 4000, 1},
		{"barrier-free/slices=1", 0, 1},
		{"barrier-free/slices=4", 0, 4},
	}
	for _, cores := range []int{2, 8, 18} {
		for _, v := range variants {
			cores, v := cores, v
			b.Run(fmt.Sprintf("cores=%d/%s", cores, v.name), func(b *testing.B) {
				mm := m
				mm.Hierarchy.L3Slices = v.slices
				done := 0
				for done < b.N {
					per := uint64((b.N-done)/cores + 1)
					if per > 100_000 {
						per = 100_000
					}
					mk := func(tid int) trace.Reader {
						k := workload.NewConv(workload.StyleSKX, workload.ConvTrain()[6],
							workload.ConvFwd, mm.Core.VectorLanes, uint64(tid)+1, v.barrier)
						k.SetExtraOverhead(tid % 4) // skewed barrier paces
						return trace.NewLimit(k, per)
					}
					res := sim.RunSMP(mm, cores, mk, sim.Default())
					committed := 0
					for _, st := range res.PerCore {
						committed += int(st.Committed)
					}
					if committed == 0 {
						b.Fatal("no uops committed")
					}
					done += committed
				}
			})
		}
	}
}

// BenchmarkSimulatorThroughput reports end-to-end simulated uops per second
// on a representative workload (the headline simulator speed number).
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, _ := workload.SPECProfile("mcf")
	m := config.BDW()
	done := 0
	for done < b.N {
		opts := sim.Default()
		n := uint64(b.N - done)
		if n > 500_000 {
			n = 500_000
		}
		res := sim.Run(m, trace.NewLimit(workload.NewGenerator(prof), n), opts)
		done += int(res.Stats.Committed)
		if res.Stats.Committed == 0 {
			break
		}
	}
}
