package experiments

import (
	"fmt"
	"strings"

	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/sim"
	"perfstacks/internal/textplot"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// Figure5Run is one bar pair of Figure 5: the IPC stack and FLOPS stack of a
// convolution configuration on an SMP SKX, with and without a perfect
// D-cache.
type Figure5Run struct {
	Label string
	// IPC stack values per CPI component (height = max IPC).
	IPC [core.NumComponents]float64
	// MaxIPC is the stack height.
	MaxIPC float64
	// FLOPS stack normalized fractions per FLOPS component.
	FLOPS core.FLOPSStack
	// AchievedIPC is the base of the IPC stack.
	AchievedIPC float64
}

// Figure5Result reproduces Figure 5: IPC and FLOPS stacks for one
// convolution training forward configuration on SKX, without and with a
// perfect D-cache, including the Unsched synchronization component.
type Figure5Result struct {
	Machine  string
	Workload string
	Cores    int
	Real     Figure5Run
	PerfectD Figure5Run
}

// figure5Cores is the SMP width for the experiment. The paper ran 26
// threads on SKX; the default here is smaller to keep runtimes interactive,
// while exercising the same shared-uncore and barrier mechanics.
const figure5Cores = 4

// Figure5 runs the experiment.
func Figure5(spec RunSpec) Figure5Result {
	cfg := workload.ConvTrain()[6] // 54x54x64x8k64, a mid-sized layer
	m := config.SKX()

	runOne := func(mm config.Machine, label string) Figure5Run {
		mm.Hierarchy.L3Slices = spec.L3Slices
		opts := sim.Options{CPI: true, FLOPS: true, WarmupUops: spec.Warmup}
		res := sim.RunSMP(mm, figure5Cores, func(tid int) trace.Reader {
			k := workload.NewConv(workload.StyleSKX, cfg, workload.ConvFwd,
				mm.Core.VectorLanes, uint64(tid)*977+13, 20_000)
			// Remainder tiles give threads slightly different paces; the
			// faster threads wait at barriers (the Unsched component).
			k.SetExtraOverhead(tid % 3)
			return trace.NewLimit(k, spec.Warmup+spec.Uops)
		}, opts)
		issue := res.Stacks.Stack(core.StageIssue)
		run := Figure5Run{
			Label:       label,
			MaxIPC:      float64(issue.Width),
			FLOPS:       res.FLOPS,
			AchievedIPC: issue.IPCStack(core.CompBase),
		}
		for c := core.Component(0); c < core.NumComponents; c++ {
			run.IPC[c] = issue.IPCStack(c)
		}
		return run
	}

	real := runOne(m, "all real")
	perf := runOne(m.Apply(config.Idealize{PerfectDCache: true}), "perfect Dcache")
	return Figure5Result{
		Machine:  m.Name,
		Workload: "conv train fwd " + cfg.Name,
		Cores:    figure5Cores,
		Real:     real,
		PerfectD: perf,
	}
}

// Render draws the paired IPC/FLOPS stacks.
func (r Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: IPC and FLOPS stacks, %s on %d-core %s\n\n",
		r.Workload, r.Cores, r.Machine)
	for _, run := range []Figure5Run{r.Real, r.PerfectD} {
		fmt.Fprintf(&b, "[%s]\n", run.Label)
		tbl := textplot.NewTable("IPC component", "IPC", "|", "FLOPS component", "frac")
		cpiComps := core.Components()
		flopsComps := core.FLOPSComponents()
		n := len(cpiComps)
		if len(flopsComps) > n {
			n = len(flopsComps)
		}
		for i := 0; i < n; i++ {
			var c1, v1, c2, v2 string
			if i < len(cpiComps) {
				c1 = cpiComps[i].String()
				v1 = fmt.Sprintf("%.3f", run.IPC[cpiComps[i]])
			}
			if i < len(flopsComps) {
				c2 = flopsComps[i].String()
				v2 = fmt.Sprintf("%.3f", run.FLOPS.Normalized(flopsComps[i]))
			}
			tbl.Row(c1, v1, "|", c2, v2)
		}
		b.WriteString(tbl.String())
		fmt.Fprintf(&b, "achieved IPC %.2f of %.0f; FLOPS efficiency %.1f%%\n\n",
			run.AchievedIPC, run.MaxIPC, 100*run.FLOPS.Normalized(core.FBase))
	}
	return b.String()
}
