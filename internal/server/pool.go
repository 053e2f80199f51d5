package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"protoquot/internal/api"
)

// errOverloaded is returned by the pool when the wait queue is full; the
// handler maps it to HTTP 503 + Retry-After.
var errOverloaded = errors.New("server: derivation queue full")

// pool bounds how many derivations run at once and how many may wait. A
// request that cannot even queue is rejected immediately — shedding load at
// the door beats stacking unbounded goroutines on a PSPACE-hard engine.
type pool struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64 // requests holding a queue ticket (incl. running)
	inflight atomic.Int64 // requests currently inside the engine
}

func newPool(workers, maxQueue int) *pool {
	if workers < 1 {
		workers = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &pool{slots: make(chan struct{}, workers), maxQueue: int64(maxQueue)}
}

// acquire claims an execution slot, waiting in the bounded queue. It fails
// fast with errOverloaded when the queue is full, and honors ctx while
// waiting. On success the caller must release().
func (p *pool) acquire(ctx context.Context) error {
	if p.queued.Add(1) > int64(cap(p.slots))+p.maxQueue {
		p.queued.Add(-1)
		return errOverloaded
	}
	select {
	case p.slots <- struct{}{}:
		p.inflight.Add(1)
		return nil
	case <-ctx.Done():
		p.queued.Add(-1)
		return ctx.Err()
	}
}

func (p *pool) release() {
	p.inflight.Add(-1)
	p.queued.Add(-1)
	<-p.slots
}

// depths reports (queued-but-not-running, running).
func (p *pool) depths() (queueDepth, inflight int64) {
	q, r := p.queued.Load(), p.inflight.Load()
	if d := q - r; d > 0 {
		queueDepth = d
	}
	return queueDepth, r
}

// flightResult is what a completed flight hands every waiter.
type flightResult struct {
	entry  *api.Artifact // cacheable outcome (converter or nonexistence)
	cached bool          // entry was found in the cache, not derived
	err    error         // non-cacheable failure (timeout, overload, internal)
}

// flight is one in-progress derivation, shared by every request that asked
// for the same key while it ran.
type flight struct {
	done    chan struct{}
	res     flightResult
	waiters atomic.Int64 // requests beyond the leader that joined
}

// flightGroup deduplicates concurrent derivations by cache key
// (singleflight): the first request for a key becomes the leader and runs
// the engine; identical requests arriving before it finishes block on the
// same flight and share its result, so N identical concurrent requests cost
// one engine run.
type flightGroup struct {
	mu     sync.Mutex
	flying map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flying: make(map[string]*flight)}
}

// do runs fn under singleflight. The second return reports whether this
// call joined an existing flight (true) rather than leading one. A panic in
// fn still finishes the flight: the leader and every waiter get an internal
// error, and the key is free for the next request. fn's own defers (the
// pool slot) run during the unwind, and whatever fn would have cached after
// the panic point is never stored.
func (g *flightGroup) do(ctx context.Context, key string, fn func() flightResult) (flightResult, bool, error) {
	g.mu.Lock()
	if f, ok := g.flying[key]; ok {
		f.waiters.Add(1)
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.res, true, nil
		case <-ctx.Done():
			// The flight keeps running for the remaining waiters (and the
			// cache); only this request gives up.
			return flightResult{}, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flying[key] = f
	g.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				f.res = flightResult{err: &api.Error{Code: api.ErrCodeInternal,
					Message: fmt.Sprintf("derivation panicked: %v", r)}}
			}
		}()
		f.res = fn()
	}()
	g.mu.Lock()
	delete(g.flying, key)
	g.mu.Unlock()
	close(f.done)
	return f.res, false, nil
}
