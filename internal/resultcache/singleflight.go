package resultcache

import (
	"context"
	"sync"
)

// Group deduplicates concurrent work on the same key: however many callers
// ask for a key at once, the producing function runs exactly once and every
// caller receives its result. This sits between the cache and the simulator
// — a thundering herd of identical requests costs one simulation, not N.
//
// Cancellation is reference-counted. The producer runs under a context
// derived from the group's base (the server lifecycle), not from any single
// request: one client disconnecting must not kill a simulation other
// clients are still waiting for. Each caller that gives up (its request
// context ends) drops its reference; when the last one leaves, the
// producer's context is canceled and the simulation stops cooperatively.
type Group struct {
	base context.Context
	mu   sync.Mutex
	m    map[Key]*flight
}

type flight struct {
	done    chan struct{}
	payload []byte
	err     error
	waiters int
	cancel  context.CancelFunc
}

// NewGroup returns a Group whose producers run under base (nil means
// Background). Canceling base stops every in-flight producer — the graceful
// drain path.
func NewGroup(base context.Context) *Group {
	if base == nil {
		base = context.Background()
	}
	return &Group{base: base, m: make(map[Key]*flight)}
}

// Do returns the payload for k, running fn at most once per in-flight key.
// req is this caller's request context: when it ends before the result is
// ready, Do returns req's error and releases this caller's interest in the
// flight. leader reports whether this call started the producer (false =
// the request was coalesced onto an existing flight).
func (g *Group) Do(req context.Context, k Key, fn func(ctx context.Context) ([]byte, error)) (payload []byte, err error, leader bool) {
	if req == nil {
		req = context.Background()
	}
	g.mu.Lock()
	f, ok := g.m[k]
	if !ok {
		leader = true
		fctx, cancel := context.WithCancel(g.base)
		f = &flight{done: make(chan struct{}), cancel: cancel}
		g.m[k] = f
		go func() {
			f.payload, f.err = fn(fctx)
			g.mu.Lock()
			// An abandoned flight was already removed, and k may now name
			// a newer flight, which is not this producer's to retire.
			if g.m[k] == f {
				delete(g.m, k)
			}
			g.mu.Unlock()
			cancel()
			close(f.done)
		}()
	}
	f.waiters++
	g.mu.Unlock()

	select {
	case <-f.done:
		return f.payload, f.err, leader
	case <-req.Done():
		g.mu.Lock()
		f.waiters--
		abandoned := f.waiters == 0
		if abandoned && g.m[k] == f {
			// Nobody may join a flight whose producer is being canceled:
			// a caller arriving before the producer returns leads a new
			// flight instead of receiving the cancellation error.
			delete(g.m, k)
		}
		g.mu.Unlock()
		if abandoned {
			// Last interested caller left: stop the producer. The flight's
			// goroutine still runs to completion (recording the cancellation
			// error), it just stops simulating at the next poll.
			f.cancel()
		}
		return nil, req.Err(), leader
	}
}

// Waiters reports how many callers are currently waiting on k's flight
// (0 = no flight). Tests use it to synchronize on full coalescence.
func (g *Group) Waiters(k Key) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[k]; ok {
		return f.waiters
	}
	return 0
}

// InFlight returns the number of keys with a joinable flight. A producer
// whose last waiter left is no longer counted, though it may still be
// winding down.
func (g *Group) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
