package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			counts := make([]int32, n)
			failed := Run(context.Background(), workers, n, func(_ context.Context, i int) error {
				atomic.AddInt32(&counts[i], 1)
				return nil
			})
			if len(failed) != 0 {
				t.Fatalf("workers=%d n=%d: unexpected failures %v", workers, n, failed)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: job %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestRunResultsAreIndexOrdered(t *testing.T) {
	const n = 200
	out := make([]int, n)
	Run(context.Background(), 8, n, func(_ context.Context, i int) error {
		out[i] = i * i
		return nil
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunSingleWorkerIsSequential(t *testing.T) {
	var order []int
	Run(context.Background(), 1, 10, func(_ context.Context, i int) error {
		order = append(order, i)
		return nil
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken at %d: got %v", i, order)
		}
	}
}

// Regression (ISSUE 4): Run(n == 0) must return immediately — no worker, no
// feeder, no deadlock — for every pool shape.
func TestRunZeroJobsReturns(t *testing.T) {
	done := make(chan struct{})
	go func() {
		for _, w := range []int{0, 1, 16} {
			if failed := Run(context.Background(), w, 0, func(context.Context, int) error {
				t.Error("job ran for n == 0")
				return nil
			}); len(failed) != 0 {
				t.Errorf("workers=%d: failures %v", w, failed)
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run with n == 0 deadlocked")
	}
}

// Regression (ISSUE 4): a panicking job must neither kill the process nor
// strand the feeder goroutine — the panic is recovered into a JobError and
// every other job still runs. One crashed config in a sweep must not take
// down the rest.
func TestRunPanickingJobDoesNotDeadlock(t *testing.T) {
	done := make(chan []JobError)
	var ran int32
	go func() {
		done <- Run(context.Background(), 4, 50, func(_ context.Context, i int) error {
			if i == 13 {
				panic("poisoned config")
			}
			atomic.AddInt32(&ran, 1)
			return nil
		})
	}()
	var failed []JobError
	select {
	case failed = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pool with panicking job deadlocked")
	}
	if len(failed) != 1 || failed[0].Index != 13 {
		t.Fatalf("failures = %v, want exactly job 13", failed)
	}
	var pe *PanicError
	if !errors.As(failed[0].Err, &pe) || pe.Value != "poisoned config" {
		t.Fatalf("job 13 error = %v, want recovered PanicError", failed[0].Err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("recovered panic should carry a stack")
	}
	if ran != 49 {
		t.Fatalf("%d healthy jobs ran, want 49", ran)
	}
}

// Every worker panicking at once is the worst case for the feeder: all
// sends must still be drained or unblocked.
func TestRunAllJobsPanic(t *testing.T) {
	failed := Run(context.Background(), 4, 32, func(context.Context, int) error {
		panic("everything is broken")
	})
	if len(failed) != 32 {
		t.Fatalf("%d failures, want 32", len(failed))
	}
	for i, f := range failed {
		if f.Index != i {
			t.Fatalf("failures not index-ordered: %v", failed)
		}
	}
}

func TestRunCancellationStopsFeeding(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	failed := Run(ctx, 2, 1000, func(jctx context.Context, i int) error {
		if atomic.AddInt32(&started, 1) == 2 {
			cancel()
		}
		<-jctx.Done()
		return fmt.Errorf("stopped: %w", jctx.Err())
	})
	if got := atomic.LoadInt32(&started); got >= 1000 || got < 2 {
		t.Fatalf("%d jobs started after cancellation, want a small prefix", got)
	}
	// Only the jobs that actually started report errors; skipped jobs are
	// not failures.
	if len(failed) != int(started) {
		t.Fatalf("%d failures for %d started jobs", len(failed), started)
	}
}

func TestRunInlineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	Run(ctx, 1, 100, func(_ context.Context, i int) error {
		ran++
		if i == 4 {
			cancel()
		}
		return nil
	})
	if ran != 5 {
		t.Fatalf("inline pool ran %d jobs after cancel at 5, want 5", ran)
	}
}

func TestRunTimedReport(t *testing.T) {
	rep := RunTimed(context.Background(), 4, 6, func(_ context.Context, i int) (string, uint64, error) {
		return fmt.Sprintf("job%d", i), uint64((i + 1) * 1000), nil
	})
	if rep.Workers != 4 {
		t.Errorf("Workers = %d, want 4", rep.Workers)
	}
	if len(rep.Jobs) != 6 {
		t.Fatalf("len(Jobs) = %d, want 6", len(rep.Jobs))
	}
	var want uint64
	for i, s := range rep.Jobs {
		if s.Label != fmt.Sprintf("job%d", i) {
			t.Errorf("job %d label = %q (report must be index-ordered)", i, s.Label)
		}
		if s.Uops != uint64((i+1)*1000) {
			t.Errorf("job %d uops = %d", i, s.Uops)
		}
		if s.Attempts != 1 {
			t.Errorf("job %d attempts = %d", i, s.Attempts)
		}
		want += s.Uops
	}
	if rep.TotalUops != want {
		t.Errorf("TotalUops = %d, want %d", rep.TotalUops, want)
	}
	if rep.WallSeconds <= 0 {
		t.Errorf("WallSeconds = %v, want > 0", rep.WallSeconds)
	}
	if rep.UopsPerSec <= 0 {
		t.Errorf("UopsPerSec = %v, want > 0", rep.UopsPerSec)
	}
	if rep.Failed() {
		t.Errorf("clean run reports failures: %v", rep.Errors)
	}
}

func TestRunTimedRecordsFailures(t *testing.T) {
	rep := RunTimed(context.Background(), 2, 4, func(_ context.Context, i int) (string, uint64, error) {
		if i == 2 {
			return "bad", 0, errors.New("boom")
		}
		return "ok", 100, nil
	})
	if !rep.Failed() || len(rep.Errors) != 1 {
		t.Fatalf("Errors = %v, want exactly one", rep.Errors)
	}
	if rep.Errors[0].Index != 2 || rep.Errors[0].Label != "bad" {
		t.Fatalf("failure = %+v", rep.Errors[0])
	}
	if rep.Jobs[2].Err == "" {
		t.Fatal("failed job's Stat must carry the error text")
	}
	if rep.TotalUops != 300 {
		t.Fatalf("TotalUops = %d, want 300 (failed job contributes none)", rep.TotalUops)
	}
}

// The -benchjson schema: a started job reports one attempt (a panicking
// one too, with its error text), a job the canceled pool never reached
// reports zero.
func TestRunTimedAttempts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rep := RunTimed(ctx, 1, 5, func(_ context.Context, i int) (string, uint64, error) {
		if i == 1 {
			cancel()
			panic("poisoned config")
		}
		return fmt.Sprintf("job%d", i), 10, nil
	})
	want := []int{1, 1, 0, 0, 0}
	for i, s := range rep.Jobs {
		if s.Attempts != want[i] {
			t.Errorf("job %d attempts = %d, want %d", i, s.Attempts, want[i])
		}
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Index != 1 || rep.Errors[0].Attempts != 1 {
		t.Fatalf("Errors = %+v, want job 1 after one attempt", rep.Errors)
	}
	if got := rep.Jobs[1].Err; got != "job panicked: poisoned config" {
		t.Errorf("panicked job's Stat.Err = %q", got)
	}
	if rep.TotalUops != 10 {
		t.Errorf("TotalUops = %d, want 10 (only job 0 completed)", rep.TotalUops)
	}
}

func TestReportWriteJSON(t *testing.T) {
	rep := RunTimed(context.Background(), 2, 3, func(_ context.Context, i int) (string, uint64, error) {
		if i == 1 {
			return "w", 10, errors.New("bad run")
		}
		return "w", 10, nil
	})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if back.TotalUops != 30 || len(back.Jobs) != 3 {
		t.Errorf("round-trip mismatch: %+v", back)
	}
	if len(back.Errors) != 1 || back.Errors[0].Message == "" {
		t.Errorf("failure did not survive the JSON round-trip: %+v", back.Errors)
	}
}

func TestWorkersClamp(t *testing.T) {
	if Workers(3) != 3 {
		t.Errorf("Workers(3) = %d", Workers(3))
	}
	if Workers(0) < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", Workers(0))
	}
	if Workers(-5) < 1 {
		t.Errorf("Workers(-5) = %d, want >= 1", Workers(-5))
	}
}

func TestJobErrorFormatting(t *testing.T) {
	je := &JobError{Index: 3, Label: "mcf/BDW", Err: errors.New("trace truncated"), Message: "trace truncated"}
	if got := je.Error(); got != "job 3 (mcf/BDW): trace truncated" {
		t.Errorf("Error() = %q", got)
	}
	if !errors.Is(je, je.Err) {
		t.Error("JobError must unwrap to its cause")
	}
}
