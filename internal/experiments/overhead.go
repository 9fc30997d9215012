package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfstacks/internal/bpred"
	"perfstacks/internal/cache"
	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/stats"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// OverheadResult quantifies the paper's §IV claim that adding multi-stage
// CPI stack and FLOPS stack accounting slows the simulator by less than 1%.
type OverheadResult struct {
	Workload    string
	Machine     string
	Uops        uint64
	BaseSeconds float64
	AcctSeconds float64
	// OverheadPct is the median, over the run pairs, of
	// (acct - base) / base * 100. BaseSeconds and AcctSeconds are the
	// median run times.
	OverheadPct float64
}

// Overhead measures simulation wall time with accounting detached vs with
// multi-stage CPI and FLOPS accounting attached, over reps pairs of runs.
func Overhead(spec RunSpec, reps int) OverheadResult {
	if reps < 1 {
		reps = 3
	}
	prof := mustProfile("mcf")
	m := config.BDW()
	total := spec.Warmup + spec.Uops

	runOnce := func(withAcct bool) float64 {
		hier := cache.NewHierarchy(m.Hierarchy)
		pred := bpred.NewTournament(m.Bpred)
		c := cpu.New(m.Core, hier, pred, trace.NewLimit(workload.NewGenerator(prof), total))
		if withAcct {
			c.Attach(core.NewMultiStageAccountant(core.Options{Width: m.Core.MinWidth()}))
			c.Attach(core.NewFLOPSAccountant(m.Core.VFPUnits, m.Core.VectorLanes))
		}
		start := time.Now()
		c.Run()
		return time.Since(start).Seconds()
	}

	// Each pair runs both kinds back to back, alternating which goes first,
	// so drift in the host's speed hits both alike. The overhead is the
	// median of the pairs' time ratios: a neighbour slowing one run moves
	// its pair's ratio, not the median.
	runOnce(false) // warm the code paths
	base := make([]float64, reps)
	acct := make([]float64, reps)
	ratio := make([]float64, reps)
	for i := range ratio {
		if i%2 == 0 {
			base[i] = runOnce(false)
			acct[i] = runOnce(true)
		} else {
			acct[i] = runOnce(true)
			base[i] = runOnce(false)
		}
		ratio[i] = acct[i] / base[i]
	}

	return OverheadResult{
		Workload:    prof.Name,
		Machine:     m.Name,
		Uops:        total,
		BaseSeconds: stats.Summarize(base).Median,
		AcctSeconds: stats.Summarize(acct).Median,
		OverheadPct: (stats.Summarize(ratio).Median - 1) * 100,
	}
}

// Render formats the measurement.
func (r OverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("Accounting overhead (§IV claim: < 1% simulation-time increase)\n\n")
	fmt.Fprintf(&b, "%s on %s, %d uops\n", r.Workload, r.Machine, r.Uops)
	fmt.Fprintf(&b, "  without accounting: %.4fs\n", r.BaseSeconds)
	fmt.Fprintf(&b, "  with multi-stage CPI + FLOPS accounting: %.4fs\n", r.AcctSeconds)
	fmt.Fprintf(&b, "  overhead: %.2f%%\n", r.OverheadPct)
	return b.String()
}
