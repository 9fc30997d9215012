package runner

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrSaturated is returned by Pool.Submit when the bounded queue is full:
// the admission-control signal the service layer converts into a 429 with
// Retry-After. Rejecting at the queue keeps latency bounded for the work
// already admitted instead of letting an unbounded backlog grow.
var ErrSaturated = errors.New("runner: pool saturated")

// ErrPoolClosed is returned by Pool.Submit after Close: the pool is
// draining and accepts no new work (the graceful-shutdown path).
var ErrPoolClosed = errors.New("runner: pool closed")

// PoolInstrument receives gauge updates from a Pool. All callbacks are
// optional (nil = ignored) and are invoked synchronously from Submit and
// the workers, so they must be cheap and lock-free (atomic gauges).
type PoolInstrument struct {
	// Queued is called with the new queued-job count whenever it changes.
	Queued func(n int)
	// Active is called with the new running-job count whenever it changes.
	Active func(n int)
	// Done is called after each job's final attempt with its error and wall
	// time (queue wait excluded).
	Done func(err error, wall time.Duration)
}

// PoolOptions configures a long-lived Pool.
type PoolOptions struct {
	// Workers bounds concurrent jobs (<= 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (<= 0 means one
	// slot per worker). Submissions beyond workers+queue are shed with
	// ErrSaturated.
	QueueDepth int
	// JobTimeout bounds each job (0 = unbounded). It is enforced
	// cooperatively: the job's context is canceled at the deadline and the
	// job is expected to observe it (the sim step loop polls its context
	// periodically); the goroutine is never killed.
	JobTimeout time.Duration
	// Instrument hooks gauge updates into the owner's metrics.
	Instrument PoolInstrument
}

// Pool is the long-lived counterpart of Run/RunTimed: the batch entry points
// supervise a fixed job list to completion, while a Pool serves an open
// stream of submissions from a daemon. It keeps the supervisor's per-job
// guarantees — panics recover into errors, timeouts are enforced
// cooperatively, a job's context cancels it mid-run — and adds the two
// things a service needs: a bounded admission queue with immediate
// saturation feedback, and queue/active instrumentation for metrics.
type Pool struct {
	opts  PoolOptions
	tasks chan *poolTask
	wg    sync.WaitGroup

	// closing is closed by Close before tasks is: SubmitWait callers blocked
	// on a full queue abort on it instead of racing a send against the
	// channel close. senders counts SubmitWait callers between registration
	// and select completion so Close can wait them out.
	closing chan struct{}
	senders sync.WaitGroup

	mu     sync.Mutex
	closed bool
	queued int
	active int
}

type poolTask struct {
	ctx  context.Context
	job  func(ctx context.Context) error
	done chan error
}

// NewPool starts the workers and returns a ready pool.
func NewPool(opts PoolOptions) *Pool {
	workers := Workers(opts.Workers)
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = workers
	}
	p := &Pool{opts: opts, tasks: make(chan *poolTask, depth), closing: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit offers a job to the pool without blocking. On admission it returns
// a channel that delivers the job's final error (nil on success) exactly
// once. A full queue returns ErrSaturated; a closed pool returns
// ErrPoolClosed. The job's context is the submitted ctx bounded by the
// pool's JobTimeout; a ctx already canceled when the job is dequeued skips
// the job entirely and delivers ctx's error.
func (p *Pool) Submit(ctx context.Context, job func(ctx context.Context) error) (<-chan error, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &poolTask{ctx: ctx, job: job, done: make(chan error, 1)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	select {
	case p.tasks <- t:
		p.queued++
		n := p.queued
		p.mu.Unlock()
		p.gaugeQueued(n)
		return t.done, nil
	default:
		p.mu.Unlock()
		return nil, ErrSaturated
	}
}

// SubmitWait is the blocking counterpart of Submit: instead of shedding with
// ErrSaturated when the queue is full, it waits for a slot until ctx is done
// (returning ctx's error) or the pool closes (ErrPoolClosed). It exists for
// cooperating fan-out callers — the cells of one admitted sensitivity plan —
// whose burst should queue behind the running work rather than trip the
// admission control meant to referee independent clients.
func (p *Pool) SubmitWait(ctx context.Context, job func(ctx context.Context) error) (<-chan error, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &poolTask{ctx: ctx, job: job, done: make(chan error, 1)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	p.senders.Add(1)
	// Count the waiter in the queue gauge up front (a worker may dequeue the
	// task the instant the send lands, and its decrement must never observe
	// a count this path has yet to add).
	p.queued++
	n := p.queued
	p.mu.Unlock()
	p.gaugeQueued(n)
	defer p.senders.Done()
	select {
	case p.tasks <- t:
		return t.done, nil
	case <-ctx.Done():
		p.unqueue()
		return nil, ctx.Err()
	case <-p.closing:
		p.unqueue()
		return nil, ErrPoolClosed
	}
}

// unqueue reverses the optimistic queued++ of a SubmitWait that aborted
// before its task entered the channel.
func (p *Pool) unqueue() {
	p.mu.Lock()
	p.queued--
	n := p.queued
	p.mu.Unlock()
	p.gaugeQueued(n)
}

// Queued returns the number of jobs waiting to run: admitted jobs not yet
// picked up by a worker, plus SubmitWait callers still waiting for a queue
// slot.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// Active returns the number of running jobs.
func (p *Pool) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Close stops admission and waits for queued and running jobs to finish.
// Pending jobs still run (their contexts decide whether they do real work);
// callers that want a faster drain cancel those contexts first.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	// Flush blocked SubmitWait callers before closing the task channel: a
	// sender still in its select must take the closing arm (or win the send
	// race, which is fine — the task is then in the channel before close).
	close(p.closing)
	p.senders.Wait()
	close(p.tasks)
	p.wg.Wait()
}

func (p *Pool) gaugeQueued(n int) {
	if f := p.opts.Instrument.Queued; f != nil {
		f(n)
	}
}

func (p *Pool) gaugeActive(n int) {
	if f := p.opts.Instrument.Active; f != nil {
		f(n)
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.mu.Lock()
		p.queued--
		p.active++
		q, a := p.queued, p.active
		p.mu.Unlock()
		p.gaugeQueued(q)
		p.gaugeActive(a)

		start := time.Now()
		var err error
		if t.ctx.Err() != nil {
			// Abandoned while queued: don't burn a worker on it.
			err = t.ctx.Err()
		} else {
			// runOneAttempt supplies the supervisor contract: recovered
			// panics and the cooperative timeout.
			err = runOneAttempt(t.ctx, p.opts.JobTimeout, 0, func(ctx context.Context, _ int) error {
				return t.job(ctx)
			})
		}
		wall := time.Since(start)

		p.mu.Lock()
		p.active--
		a = p.active
		p.mu.Unlock()
		p.gaugeActive(a)
		if f := p.opts.Instrument.Done; f != nil {
			f(err, wall)
		}
		t.done <- err
	}
}
