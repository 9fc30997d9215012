package sensitivity

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"perfstacks/internal/export"
	"perfstacks/internal/resultcache"
	"perfstacks/internal/runner"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// RunCellFunc executes one plan cell and returns its complete result with
// provenance. It must honor ctx: a canceled context stops the cell (and the
// plan) promptly.
type RunCellFunc func(ctx context.Context, p *Plan, cell Cell) (CellOutcome, error)

// Progress reports one completed cell to an Orchestrator.OnCell observer.
type Progress struct {
	// Index is the cell's position in Plan.Cells.
	Index int
	// Done counts completed cells including this one; Total is len(Cells).
	Done, Total int
	// Cell is the completed cell.
	Cell Cell
	// CPI is the cell's measured CPI.
	CPI float64
	// Source is where the result came from (Source* constants).
	Source string
}

// Orchestrator fans a plan's cells through a per-cell runner with bounded
// concurrency, first-error cancellation, and serialized progress callbacks,
// then folds the outcomes into the ranked report.
type Orchestrator struct {
	// Run executes one cell (required).
	Run RunCellFunc
	// Concurrency bounds in-flight cells (<= 0 means runner.Workers(0),
	// i.e. GOMAXPROCS).
	Concurrency int
	// OnCell, when non-nil, observes completions in completion order. Calls
	// are serialized; Execute does not return until the last call has.
	OnCell func(Progress)
}

// Execute runs the plan to completion on min(Concurrency, len(Cells))
// workers, each taking the next unstarted cell until none is left. On any
// cell error the remaining cells are canceled and the first error is
// returned — a partial plan is not a measurement, so no report is built
// (completed cells stay in whatever cache the runner populated, which is
// exactly what makes a retry cheap). Execute joins every worker before
// returning.
func (o *Orchestrator) Execute(ctx context.Context, p *Plan) (*Report, error) {
	if o.Run == nil {
		return nil, fmt.Errorf("sensitivity: Orchestrator.Run is nil")
	}
	conc := o.Concurrency
	if conc <= 0 {
		conc = runner.Workers(0)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]CellOutcome, len(p.Cells))
	var (
		next     atomic.Int64 // index of the next unstarted cell
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	record := func(i int, out CellOutcome, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				cell := p.Cells[i]
				label := cell.Variant
				if cell.Param != "" {
					label = cell.Param + "/" + cell.Variant
				}
				firstErr = fmt.Errorf("sensitivity: cell %s: %w", label, err)
				cancel()
			}
			return
		}
		outcomes[i] = out
		done++
		if o.OnCell != nil {
			o.OnCell(Progress{
				Index: i, Done: done, Total: len(p.Cells),
				Cell: p.Cells[i], CPI: out.Result.CPIOf(), Source: out.Source,
			})
		}
	}
	workers := min(conc, len(p.Cells))
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for cctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(p.Cells) {
					return
				}
				out, err := o.Run(cctx, p, p.Cells[i])
				record(i, out, err)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return BuildReport(p, outcomes)
}

// LocalRunner returns a RunCellFunc that executes cells in this process:
// the shared result cache first (when non-nil), then a real simulation on
// the pool (inline when pool is nil). Completed simulations are written
// back to the cache, so a re-run of the same plan — or any overlapping
// plan, sweep or simd request sharing the cache directory — is mostly
// cache hits.
func LocalRunner(pool *runner.Pool, cache *resultcache.Cache) RunCellFunc {
	return func(ctx context.Context, p *Plan, cell Cell) (CellOutcome, error) {
		key := cell.Key
		if key == (resultcache.Key{}) {
			return CellOutcome{}, ErrNoCellKey
		}
		// An entry that fails to decode is a miss: it degrades to
		// recomputation.
		if res, ok := cache.Result(key); ok {
			return CellOutcome{Result: res, Source: SourceCache}, nil
		}
		var res sim.Result
		job := func(jctx context.Context) error {
			opts := p.Opts
			opts.Context = jctx
			res = sim.Run(cell.Machine, trace.NewLimit(workload.NewGenerator(p.Profile), p.Uops), opts)
			if res.Err != nil {
				return res.Err
			}
			if cache != nil {
				if enc, err := export.EncodeResult(&res, p.Profile.Name); err == nil {
					// Best-effort: a full disk degrades to recomputation.
					_ = cache.Put(key, enc)
				}
			}
			return nil
		}
		if pool == nil {
			if err := job(ctx); err != nil {
				return CellOutcome{}, err
			}
		} else {
			done, err := pool.SubmitWait(ctx, job)
			if err != nil {
				return CellOutcome{}, err
			}
			if err := <-done; err != nil {
				return CellOutcome{}, err
			}
		}
		return CellOutcome{Result: &res, Source: SourceSim}, nil
	}
}
