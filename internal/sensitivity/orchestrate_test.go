package sensitivity

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"perfstacks/internal/config"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/runner"
	"perfstacks/internal/sim"
)

// testPlan builds a small, fast plan over the branch predictor parameters.
func testPlan(t *testing.T, po PlanOptions, uops uint64) *Plan {
	t.Helper()
	opts := sim.Options{WarmupUops: uops / 3}
	p, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), uops, opts, po)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGoldenDeterministicReport(t *testing.T) {
	run := func() []byte {
		t.Helper()
		p := testPlan(t, PlanOptions{Params: []string{"bpred"}}, 9_000)
		orch := &Orchestrator{Run: LocalRunner(nil, nil), Concurrency: 4}
		rep, err := orch.Execute(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("identical plans produced different reports:\n%s\n---\n%s", a, b)
	}

	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != ReportSchemaVersion {
		t.Fatalf("report version %q, want %q", rep.Version, ReportSchemaVersion)
	}
	if rep.BaselineCPI <= 0 {
		t.Fatalf("baseline CPI %v, want > 0", rep.BaselineCPI)
	}
	for i := 1; i < len(rep.Params); i++ {
		if rep.Params[i-1].Score < rep.Params[i].Score {
			t.Fatalf("ranking not sorted by score: %v before %v", rep.Params[i-1], rep.Params[i])
		}
	}
	if rep.Summary.Cells != len(rep.Cells) || rep.Summary.Simulated != rep.Summary.Cells {
		t.Fatalf("cache-less run summary wrong: %+v", rep.Summary)
	}
	// The bpred group carries exactly one idealized endpoint (perfect bpred).
	if len(rep.Bounds) != 1 || rep.Bounds[0].Component != "Bpred" {
		t.Fatalf("bounds = %+v, want exactly the Bpred cross-check", rep.Bounds)
	}
}

// TestIdealGainNonNegative is the property test: removing work via one of
// the paper's idealizations must never make the machine slower. The check
// allows 0.1% of the baseline CPI as slack — idealizing a unit reorders
// issue in the detailed model, and the perturbed schedule can cost a
// handful of cycles even though the idealized machine does strictly less
// work (e.g. single-cycle ALUs shift which uops compete for a port and a
// load issues a cycle later).
func TestIdealGainNonNegative(t *testing.T) {
	for _, prof := range []string{"mcf", "gcc-1"} {
		p, err := NewPlan(config.BDW(), mustProfile(t, prof), 20_000, sim.Options{WarmupUops: 5_000},
			PlanOptions{Params: []string{"l1i_size", "l1d_size", "bpred_size", "alu_latency"}, Variants: []float64{2}})
		if err != nil {
			t.Fatal(err)
		}
		orch := &Orchestrator{Run: LocalRunner(nil, nil)}
		rep, err := orch.Execute(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Bounds) != len(IdealComponents()) {
			t.Fatalf("%s: %d bound checks, want %d", prof, len(rep.Bounds), len(IdealComponents()))
		}
		for _, c := range rep.Cells {
			if c.Kind != KindIdeal {
				continue
			}
			if gain := rep.BaselineCPI - c.CPI; gain < -rep.BaselineCPI/1000 {
				t.Errorf("%s: idealized endpoint %s/%s has negative gain %v (baseline %v, cell %v)",
					prof, c.Param, c.Variant, gain, rep.BaselineCPI, c.CPI)
			}
		}
	}
}

func TestOrchestratorCancellationMidFanout(t *testing.T) {
	p := testPlan(t, PlanOptions{}, 5_000)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	run := func(ctx context.Context, _ *Plan, _ Cell) (CellOutcome, error) {
		if started.Add(1) == 3 {
			cancel() // the "client" walks away while cells are in flight
		}
		<-ctx.Done()
		return CellOutcome{}, ctx.Err()
	}
	orch := &Orchestrator{Run: run, Concurrency: 4}
	rep, err := orch.Execute(ctx, p)
	if rep != nil {
		t.Fatal("canceled plan still produced a report")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Far fewer cells ran than the plan holds: cancellation stopped the fan.
	if n := int(started.Load()); n >= len(p.Cells) {
		t.Fatalf("all %d cells started despite cancellation", n)
	}
}

func TestOrchestratorFirstErrorCancels(t *testing.T) {
	p := testPlan(t, PlanOptions{}, 5_000)
	boom := errors.New("boom")
	var calls atomic.Int32
	run := func(ctx context.Context, _ *Plan, cell Cell) (CellOutcome, error) {
		calls.Add(1)
		if cell.Kind == KindBaseline {
			return CellOutcome{}, boom
		}
		<-ctx.Done()
		return CellOutcome{}, ctx.Err()
	}
	orch := &Orchestrator{Run: run, Concurrency: 2}
	if _, err := orch.Execute(context.Background(), p); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the cell's error", err)
	}
	if n := int(calls.Load()); n >= len(p.Cells) {
		t.Fatalf("all %d cells ran despite an early error", n)
	}
}

// TestOrchestratorWorkersBounded: no more than Concurrency Run calls are
// ever in flight, and every cell runs exactly once.
func TestOrchestratorWorkersBounded(t *testing.T) {
	p := testPlan(t, PlanOptions{}, 5_000)
	const conc = 3
	var inFlight, peak atomic.Int32
	runs := make([]atomic.Int32, len(p.Cells))
	index := make(map[Cell]int, len(p.Cells))
	for i, c := range p.Cells {
		index[c] = i
	}
	run := func(ctx context.Context, _ *Plan, cell Cell) (CellOutcome, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		runs[index[cell]].Add(1)
		time.Sleep(100 * time.Microsecond)
		return CellOutcome{Result: &sim.Result{}, Source: SourceSim}, nil
	}
	orch := &Orchestrator{Run: run, Concurrency: conc}
	if _, err := orch.Execute(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > conc {
		t.Fatalf("%d Run calls in flight, want <= %d", got, conc)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times, want 1", i, n)
		}
	}
}

// TestOrchestratorErrorStopsWorkers: once a cell fails, no worker starts
// another cell, so at most one cell per worker ever starts.
func TestOrchestratorErrorStopsWorkers(t *testing.T) {
	p := testPlan(t, PlanOptions{}, 5_000)
	boom := errors.New("boom")
	for _, conc := range []int{1, 2, 4} {
		var calls atomic.Int32
		run := func(ctx context.Context, _ *Plan, cell Cell) (CellOutcome, error) {
			calls.Add(1)
			if cell.Kind == KindBaseline {
				return CellOutcome{}, boom
			}
			<-ctx.Done()
			return CellOutcome{}, ctx.Err()
		}
		orch := &Orchestrator{Run: run, Concurrency: conc}
		for rep := 0; rep < 20; rep++ {
			calls.Store(0)
			if _, err := orch.Execute(context.Background(), p); !errors.Is(err, boom) {
				t.Fatalf("concurrency %d: got %v, want the cell's error", conc, err)
			}
			if n := int(calls.Load()); n > conc {
				t.Fatalf("concurrency %d: %d cells started after the first failed", conc, n)
			}
		}
	}
}

// TestHundredCellPlanThroughPool is the acceptance path: a 100+-cell plan
// fanned through a real runner.Pool into the shared result cache, producing
// a ranked report with the three-stage bound cross-check; re-running the
// identical plan is served (>= 95%) from the cache.
func TestHundredCellPlanThroughPool(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of small simulations")
	}
	p, err := NewPlan(config.BDW(), mustProfile(t, "mcf"), 2_000, sim.Options{},
		PlanOptions{Variants: []float64{0.25, 0.5, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) < 100 {
		t.Fatalf("plan has %d cells, want >= 100", len(p.Cells))
	}
	pool := runner.NewPool(runner.PoolOptions{})
	defer pool.Close()
	cache := resultcache.New(resultcache.NewMemory(256<<20), nil)

	var progress atomic.Int32
	orch := &Orchestrator{
		Run:    LocalRunner(pool, cache),
		OnCell: func(pr Progress) { progress.Add(1) },
	}
	rep, err := orch.Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if int(progress.Load()) != len(p.Cells) {
		t.Fatalf("OnCell saw %d cells, want %d", progress.Load(), len(p.Cells))
	}
	if len(rep.Params) == 0 || rep.BaselineCPI <= 0 {
		t.Fatalf("degenerate report: %+v", rep.Summary)
	}
	if len(rep.Bounds) != len(IdealComponents()) {
		t.Fatalf("%d bound cross-checks, want %d", len(rep.Bounds), len(IdealComponents()))
	}

	rep2, err := (&Orchestrator{Run: LocalRunner(pool, cache)}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep2.Summary.FromCache*100, 95*rep2.Summary.Cells; got < want {
		t.Fatalf("re-run served %d/%d cells from cache, want >= 95%%",
			rep2.Summary.FromCache, rep2.Summary.Cells)
	}
	// Measurements (not provenance) are identical across runs.
	for i := range rep.Cells {
		if rep.Cells[i].CPI != rep2.Cells[i].CPI {
			t.Fatalf("cell %d CPI changed across cached re-run: %v vs %v",
				i, rep.Cells[i].CPI, rep2.Cells[i].CPI)
		}
	}
}

func TestBuildReportRejectsPartial(t *testing.T) {
	p := testPlan(t, PlanOptions{Params: []string{"bpred"}}, 5_000)
	outcomes := make([]CellOutcome, len(p.Cells))
	if _, err := BuildReport(p, outcomes); err == nil {
		t.Fatal("nil results must be rejected")
	}
	outcomes[0] = CellOutcome{Result: &sim.Result{Err: fmt.Errorf("torn trace")}, Source: SourceSim}
	if _, err := BuildReport(p, outcomes); err == nil {
		t.Fatal("partial results must be rejected")
	}
}
