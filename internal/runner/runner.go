// Package runner provides the shared supervised worker pool behind every
// bulk-simulation front end (cmd/sweep, cmd/experiments, the experiment
// library) and, as Pool, behind the simd service. Batch jobs are indexed
// 0..n-1 and write into caller-owned slots, so results come back in
// deterministic index order no matter how the scheduler interleaves them.
//
// The pool is a supervisor, not just a semaphore: a job that panics is
// recovered into a structured JobError instead of killing the process (one
// crashed configuration in a thousand-point sweep must not take down the
// other 999), and cancellation of the run context stops feeding new jobs and
// is forwarded to running jobs so they can stop cooperatively. The timed
// variant additionally records per-run wall time and ingestion throughput
// for machine-readable benchmark output. The runner keeps no state across
// runs: an interrupted sweep resumes by rerunning with the same result
// cache (sweep -cache DIR), which serves every completed simulation.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Workers clamps a requested pool size: zero or negative means GOMAXPROCS.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return max(1, runtime.GOMAXPROCS(0))
}

// JobError records one job that failed.
type JobError struct {
	// Index is the job's 0..n-1 position.
	Index int `json:"index"`
	// Label identifies the job when the timed variant ran it.
	Label string `json:"label,omitempty"`
	// Attempts is always 1: jobs are never retried, since a deterministic
	// simulator that fails once fails again. The field keeps the
	// -benchjson schema.
	Attempts int `json:"attempts"`
	// Err is the job's error (a *PanicError for recovered panics). Not
	// serialized; Message carries its text.
	Err error `json:"-"`
	// Message is Err's text, kept for JSON round-trips.
	Message string `json:"error"`
}

// Error implements the error interface.
func (e *JobError) Error() string {
	msg := e.Message
	if e.Err != nil {
		msg = e.Err.Error()
	}
	if e.Label != "" {
		return fmt.Sprintf("job %d (%s): %s", e.Index, e.Label, msg)
	}
	return fmt.Sprintf("job %d: %s", e.Index, msg)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a job panic converted to an error by the supervisor.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", e.Value) }

// Run executes job(ctx, 0)..job(ctx, n-1) across a supervised pool of at
// most `workers` goroutines (<= 0 means GOMAXPROCS) and returns the failed
// jobs in index order (empty when everything succeeded). Each job writes its
// own result slot, so the caller observes index-ordered results regardless
// of scheduling; workers <= 1 (after clamping to n) runs the jobs
// sequentially on the calling goroutine. Once ctx is canceled no new job
// starts; jobs not yet started are skipped silently (they are not failures),
// while already running jobs see the cancellation through their context and
// report whatever error they return.
func Run(ctx context.Context, workers, n int, job func(ctx context.Context, i int) error) []JobError {
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	runOne := func(i int) { errs[i] = runOneAttempt(ctx, 0, i, job) }

	if workers = min(Workers(workers), n); workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			runOne(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					runOne(i)
				}
			}()
		}
		// The feeder must never block on a send forever: workers recover
		// job panics (so they always come back for more work), and the
		// select unblocks the send when the run is canceled mid-sweep.
	feed:
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}

	var failed []JobError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, JobError{Index: i, Attempts: 1, Err: err, Message: err.Error()})
		}
	}
	return failed
}

// runOneAttempt runs a single attempt with panic recovery and the optional
// timeout (Pool's JobTimeout; batch runs pass 0). The timeout is enforced
// cooperatively: the attempt's context is canceled at the deadline and the
// job is expected to observe it; the goroutine is never killed.
func runOneAttempt(ctx context.Context, timeout time.Duration, i int, job func(ctx context.Context, i int) error) error {
	jctx := ctx
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return job(jctx, i)
	}()
	if err != nil && errors.Is(jctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
		err = fmt.Errorf("attempt exceeded the %v job timeout: %w", timeout, err)
	}
	return err
}

// Stat records one timed job.
type Stat struct {
	// Label identifies the run (e.g. "mcf/BDW").
	Label string `json:"label"`
	// WallSeconds is the job's own wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// Uops is the number of uops the job simulated (0 when not applicable).
	Uops uint64 `json:"uops,omitempty"`
	// UopsPerSec is Uops / WallSeconds (0 when Uops is 0).
	UopsPerSec float64 `json:"uops_per_sec,omitempty"`
	// Attempts is 1 for a job that ran and 0 for one that never started
	// (the run was canceled before the pool reached it).
	Attempts int `json:"attempts,omitempty"`
	// Err is the failure's text, empty on success.
	Err string `json:"error,omitempty"`
}

// Report aggregates a timed pool run for benchmark output.
type Report struct {
	// Workers is the pool size actually used.
	Workers int `json:"workers"`
	// WallSeconds is the whole pool's wall-clock time (not the sum of jobs).
	WallSeconds float64 `json:"wall_seconds"`
	// TotalUops sums the per-job uop counts.
	TotalUops uint64 `json:"total_uops"`
	// UopsPerSec is the aggregate throughput: TotalUops / WallSeconds.
	UopsPerSec float64 `json:"uops_per_sec"`
	// Jobs lists per-run stats in index order.
	Jobs []Stat `json:"jobs"`
	// Errors lists the jobs that failed, in index order (empty on a fully
	// clean run).
	Errors []JobError `json:"errors,omitempty"`
}

// Failed reports whether any job failed.
func (r *Report) Failed() bool { return len(r.Errors) > 0 }

// RunTimed is Run with per-job instrumentation: job returns a label, the
// number of uops it simulated and its error, and the report carries wall
// time, throughput and failures per job and in aggregate, in index order.
func RunTimed(ctx context.Context, workers, n int, job func(ctx context.Context, i int) (label string, uops uint64, err error)) Report {
	rep := Report{
		Workers: min(Workers(workers), n),
		Jobs:    make([]Stat, n),
	}
	start := time.Now()
	// Each job owns its Stat slot, so the wrapper fills it without locking.
	// A panicking job keeps Attempts and gets its Err below; its Label and
	// Uops stay empty.
	rep.Errors = Run(ctx, workers, n, func(jctx context.Context, i int) error {
		s := &rep.Jobs[i]
		s.Attempts = 1
		t0 := time.Now()
		label, uops, err := job(jctx, i)
		s.Label, s.Uops, s.WallSeconds = label, uops, time.Since(t0).Seconds()
		if uops > 0 && s.WallSeconds > 0 {
			s.UopsPerSec = float64(uops) / s.WallSeconds
		}
		return err
	})
	rep.WallSeconds = time.Since(start).Seconds()
	for i := range rep.Errors {
		s := &rep.Jobs[rep.Errors[i].Index]
		s.Err = rep.Errors[i].Message
		rep.Errors[i].Label = s.Label
	}
	for _, s := range rep.Jobs {
		rep.TotalUops += s.Uops
	}
	if rep.TotalUops > 0 && rep.WallSeconds > 0 {
		rep.UopsPerSec = float64(rep.TotalUops) / rep.WallSeconds
	}
	return rep
}

// WriteJSON emits the report as indented JSON, one trailing newline.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
