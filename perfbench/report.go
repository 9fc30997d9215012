package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: metrics in the order they were added, the
// human-readable lines printed above the JSON result, and the operation
// counts.
type report struct {
	order             []string
	metrics           map[string]metricValue
	lines             []string
	attempted, failed int
	errs              []string
}

func (r *report) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metricValue{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// addPercentiles reports <class>_p50_<unit> and <class>_p90_<unit> of
// samples given in seconds, scaled by perSecond into the unit.
func (r *report) addPercentiles(class, unit string, perSecond float64, secs []float64) {
	r.add(class+"_p50_"+unit, perSecond*median(secs), unit)
	r.add(class+"_p90_"+unit, perSecond*quantile(secs, 0.9), unit)
}

// print writes the human-readable lines, the metric table, and last the
// one-line JSON result.
func (r *report) print(w io.Writer) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// layers turns a traced run's counters into the per-layer metrics.
type layers struct {
	tr    *tracer
	clock float64 // ns per clock read, removed from each timed call

	hostAllocPerUop float64
	hostPauseMsPerS float64
	overheadPct     float64
	steps           *stepTimes
	svc             serviceLayers
}

// serviceLayers holds the simd-mix layer figures; zero for workloads that
// run no service.
type serviceLayers struct {
	sims, coalesced, shed, hitRatio float64
	// httpUs is the hit latency left after the replayed layers.
	httpUs            float64
	plan, buildReport latencies
	active            bool
}

func perKuop(n uint64, uops uint64) float64 {
	if uops == 0 {
		return 0
	}
	return 1000 * float64(n) / float64(uops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(part, total float64) float64 { return 100 * ratio(part, total) }

// emit adds the per-layer metrics to rep and notes the per-uop budget.
func (l *layers) emit(rep *report, workload string) {
	tr, c := l.tr, l.clock
	uops := float64(tr.uops)
	traceNs := tr.trace.totalNs(c)
	bpredNs := tr.bpred.totalNs(c)
	l3Ns := tr.l3.totalNs(c)
	memNs := tr.mem.totalNs(c)
	cacheNs := selfTime(l3Ns, memNs)
	var coreNs float64
	for i := range tr.accts {
		coreNs += tr.accts[i].totalNs(c)
	}
	runNs := float64(tr.runNs)
	cpuNs := selfTime(runNs, traceNs, bpredNs, l3Ns, coreNs)
	cpiSamples := tr.accts[acctCPI].calls

	rep.add("trace.ns_per_uop", ratio(traceNs, float64(tr.trace.work)), "ns")
	rep.add("trace.uops_per_call", ratio(float64(tr.trace.work), float64(tr.trace.calls)), "count")
	rep.add("bpred.ns_per_lookup", tr.bpred.perCallNs(c), "ns")
	rep.add("bpred.lookups_per_kuop", perKuop(tr.bpred.calls, tr.uops), "count")
	rep.add("cache.l3_ns_per_access", ratio(cacheNs, float64(tr.l3.calls)), "ns")
	rep.add("cache.l3_accesses_per_kuop", perKuop(tr.l3.calls, tr.uops), "count")
	rep.add("mem.ns_per_access", tr.mem.perCallNs(c), "ns")
	rep.add("mem.accesses_per_kuop", perKuop(tr.mem.calls, tr.uops), "count")
	rep.add("core.cpi_ns_per_sample", tr.accts[acctCPI].perCallNs(c), "ns")
	rep.add("core.ns_per_uop", ratio(coreNs, uops), "ns")
	rep.add("cpu.samples_per_kuop", perKuop(cpiSamples, tr.uops), "count")
	rep.add("cpu.cycles_per_sample", ratio(float64(tr.cycles), float64(cpiSamples)), "count")
	rep.add("cpu.self_ns_per_uop", ratio(cpuNs, uops), "ns")
	rep.add("cpu.barrier_waits_per_kuop", 1000*ratio(float64(tr.barrierWaits), uops), "count")
	rep.add("export.encode_us", median(l.steps.encode.in(time.Microsecond)), "us")
	rep.add("export.decode_us", median(l.steps.decode.in(time.Microsecond)), "us")
	rep.add("resultcache.key_us", median(l.steps.key.in(time.Microsecond)), "us")
	rep.add("resultcache.get_us", median(l.steps.get.in(time.Microsecond)), "us")
	rep.add("resultcache.put_ms", median(l.steps.put.in(time.Millisecond)), "ms")
	rep.add("sim.run_ms", median(l.steps.run.in(time.Millisecond)), "ms")
	rep.add("service.sims", l.svc.sims, "count")
	rep.add("service.coalesced", l.svc.coalesced, "count")
	rep.add("service.shed", l.svc.shed, "count")
	rep.add("service.hit_ratio", l.svc.hitRatio, "ratio")
	rep.add("host.alloc_bytes_per_uop", l.hostAllocPerUop, "B")
	rep.add("host.gc_pause_ms", l.hostPauseMsPerS, "ms/s")
	rep.add("budget.trace_pct", pct(traceNs, runNs), "%")
	rep.add("budget.bpred_pct", pct(bpredNs, runNs), "%")
	rep.add("budget.cache_pct", pct(cacheNs, runNs), "%")
	rep.add("budget.mem_pct", pct(memNs, runNs), "%")
	rep.add("budget.cpu_pct", pct(cpuNs, runNs), "%")
	rep.add("budget.core_pct", pct(coreNs, runNs), "%")
	rep.add("bench.trace_overhead_pct", l.overheadPct, "%")

	rep.notef("per-uop budget, %s (traced, %d simulations, %d uops):", workload, tr.sims, tr.uops)
	rep.notef("  of %.1f ns per uop: trace %.1f%%, bpred %.1f%%, cache %.1f%%, mem %.1f%%, cpu %.1f%%, core %.1f%%",
		ratio(runNs, uops), pct(traceNs, runNs), pct(bpredNs, runNs), pct(cacheNs, runNs),
		pct(memNs, runNs), pct(cpuNs, runNs), pct(coreNs, runNs))
	rep.notef("  %-12s %10s %10s", "layer", "ns/uop", "share")
	for _, row := range []struct {
		name string
		ns   float64
	}{{"trace", traceNs}, {"bpred", bpredNs}, {"cache (L3)", cacheNs}, {"mem", memNs}, {"cpu (self)", cpuNs}, {"core (accts)", coreNs}} {
		rep.notef("  %-12s %10.2f %9.1f%%", row.name, ratio(row.ns, uops), pct(row.ns, runNs))
	}
	// Accountants a workload does not attach, and the service-only layers,
	// are printed where they exist rather than reported as zeros.
	for i := range tr.accts {
		if tr.accts[i].calls > 0 {
			rep.notef("  core.%s_ns_per_sample %.2f ns (%d samples)", acctNames[i], tr.accts[i].perCallNs(c), tr.accts[i].calls)
		}
	}
	if l.svc.active {
		rep.notef("  service.http_us %.2f us", l.svc.httpUs)
		rep.notef("  sensitivity.plan_us %s", l.svc.plan.describe(time.Microsecond, "us"))
		rep.notef("  sensitivity.report_us %s", l.svc.buildReport.describe(time.Microsecond, "us"))
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostFingerprint names the machine and build a result was measured on.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}
