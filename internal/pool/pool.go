// Package pool provides a persistent worker pool for index-addressed
// CPU-bound fan-out: run fn(i) for every i in [0, n) across a fixed set
// of long-lived goroutines. It is the execution substrate of the public
// Engine — grouping, aggregation, disaggregation and ingest decoding all
// submit their index loops here instead of each spawning and tearing
// down goroutines per call, so a long-running service pays the pool
// setup cost once instead of on every request.
//
// Two properties shape the design:
//
//   - The pool is safe for concurrent submission: any number of
//     goroutines may call ForEach on the same pool at once. Each call
//     drives its own atomic cursor, so calls share the workers without
//     sharing any per-call state.
//
//   - The submitting goroutine always participates in its own call.
//     Pool workers are enlisted best-effort (a busy pool lends no
//     hands), so every ForEach completes even when all workers are
//     serving other calls — there is no queueing and no deadlock, and a
//     Close()d or nil pool degrades to a plain serial loop.
//
// Determinism is the caller's job and comes for free with the intended
// usage: workers write results into per-index slots, so output never
// depends on which goroutine claimed which batch.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexmeasures/internal/obs"
)

// Executor is the index-addressed fan-out interface a *Pool provides:
// run fn(i) for every i in [0, n) across at most workers concurrent
// participants (0: the executor's full width), claiming batch
// consecutive indices at a time (0: automatic batching). ForEachCtx
// additionally threads the request context through, so per-call
// observability (the pool_queue spans measuring enqueue→start handoff
// latency) attaches to the right trace. Packages that shard work over
// an Engine's pool — aggregation, disaggregation, ingest decoding —
// accept an Executor so a nil value can mean "per-call goroutine
// spin-up" without depending on this package's concrete pool.
type Executor interface {
	ForEach(n, workers, batch int, fn func(int))
	ForEachCtx(ctx context.Context, n, workers, batch int, fn func(int))
}

// Pool is a fixed-size set of persistent worker goroutines. The zero
// value is not usable; create pools with New. A nil *Pool is valid
// everywhere and means "no shared workers": ForEach on a nil pool runs
// the whole loop on the calling goroutine (callers that want per-call
// goroutine spin-up instead use Run).
type Pool struct {
	workers int
	// tasks is never closed, so a send in trySubmit cannot race a
	// close of the channel it sends on; Close stops each worker with a
	// nil task instead.
	tasks  chan func()
	busy   atomic.Int64
	closed atomic.Bool
	once   sync.Once
}

// New starts a pool of the given size; values below 1 mean one worker
// per logical CPU (runtime.GOMAXPROCS(0)). The workers live until Close
// is called; idle workers cost nothing but their stacks.
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		// The channel is deliberately unbuffered: a helper task is
		// handed off only by rendezvous with a worker that is idle
		// right now. Buffering would let a saturated pool accept tasks
		// it cannot start, and the submitting call's final wait would
		// then stall behind unrelated long-running work — the opposite
		// of the fail-fast enlistment ForEach promises.
		tasks: make(chan func()),
	}
	for i := 0; i < workers; i++ {
		go func() {
			for task := range p.tasks {
				if task == nil {
					return
				}
				p.busy.Add(1)
				task()
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// Busy reports how many pool workers are executing a task right now
// (0 for a nil pool) — the occupancy gauge a serving layer exports. It
// is a racy snapshot by nature; the value is exact only while no call
// is in flight.
func (p *Pool) Busy() int {
	if p == nil {
		return 0
	}
	return int(p.busy.Load())
}

// Workers reports the pool size (0 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

// Close stops the workers once the tasks already handed to them finish.
// Close is idempotent. Submitting after Close is permitted and runs the
// work entirely on the submitting goroutine; Close may therefore be
// called while other goroutines are still submitting, without panics —
// their calls just stop getting helpers.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		p.closed.Store(true)
		// One nil task per worker, handed over as each finishes what
		// it runs, without holding up the caller.
		go func() {
			for i := 0; i < p.workers; i++ {
				p.tasks <- nil
			}
		}()
	})
}

// ForEach runs fn(i) for every i in [0, n), fanning batches of
// consecutive indices out across the pool's workers. The calling
// goroutine participates, workers are enlisted best-effort, and the
// call returns only when every index has been processed. workers caps
// the parallelism of this one call (values below 1 mean the full pool);
// batch is the number of consecutive indices claimed at a time (values
// below 1 pick a batch that spreads the indices roughly 4× over the
// participants).
func (p *Pool) ForEach(n, workers, batch int, fn func(int)) {
	if n <= 0 {
		return
	}
	limit := p.Workers()
	if p == nil || p.closed.Load() {
		limit = 1
	}
	if workers < 1 || workers > limit {
		workers = limit
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	loop := makeLoop(&cursor, n, normalizeBatch(batch, n, workers), fn)
	var wg sync.WaitGroup
	task := func() {
		defer wg.Done()
		loop()
	}
	// Enlist up to workers−1 helpers without blocking: if the pool is
	// saturated by other calls, the caller drains the cursor alone.
	// closed.Load() above was only advisory — a concurrent Close can
	// land between it and the send; trySubmit then finds the pool
	// closed, or a worker still takes the task, or none does and the
	// work runs caller-side like any other failed enlistment.
	for h := 0; h < workers-1; h++ {
		wg.Add(1)
		if !p.trySubmit(task) {
			wg.Done()
			break
		}
	}
	loop()
	wg.Wait()
}

// ForEachCtx is ForEach with the request context threaded through so
// helper enlistment is observable: when ctx carries a trace, each
// enlisted pool worker records a pool_queue span covering the
// enqueue→start delta of its task. The pool's task channel is an
// unbuffered rendezvous — there is no backlog to measure — so the
// span is the handoff plus scheduler latency: how long the claim sat
// between being offered and a worker actually starting it. Without a
// trace in ctx this is exactly ForEach.
func (p *Pool) ForEachCtx(ctx context.Context, n, workers, batch int, fn func(int)) {
	if obs.TraceFrom(ctx) == nil {
		p.ForEach(n, workers, batch, fn)
		return
	}
	if n <= 0 {
		return
	}
	limit := p.Workers()
	if p == nil || p.closed.Load() {
		limit = 1
	}
	if workers < 1 || workers > limit {
		workers = limit
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	loop := makeLoop(&cursor, n, normalizeBatch(batch, n, workers), fn)
	var wg sync.WaitGroup
	for h := 0; h < workers-1; h++ {
		wg.Add(1)
		enq := time.Now()
		task := func() {
			defer wg.Done()
			obs.RecordSince(ctx, obs.StagePoolQueue, enq)
			loop()
		}
		if !p.trySubmit(task) {
			wg.Done()
			break
		}
	}
	loop()
	wg.Wait()
}

// trySubmit offers task to an idle worker, reporting whether one took
// it. It never blocks, and offers nothing once the pool is closed.
func (p *Pool) trySubmit(task func()) bool {
	if p.closed.Load() {
		return false
	}
	select {
	case p.tasks <- task:
		return true
	default:
		return false
	}
}

// Run is the pool-less fallback: it runs fn(i) for every i in [0, n)
// across up to workers freshly spawned goroutines (values below 1 mean
// one per logical CPU) and waits for them. This is the per-call
// spin-up model the Engine's persistent pool replaces; it remains the
// substrate of the parallel stages when no engine pool is attached,
// and the baseline BenchmarkForEachSpinUp measures the pool against.
func Run(n, workers, batch int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	loop := makeLoop(&cursor, n, normalizeBatch(batch, n, workers), fn)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	wg.Wait()
}

// normalizeBatch resolves a batch-size request against the index count
// and participant count: explicit positive values win, otherwise the
// batch spreads the indices roughly 4× over the participants so skewed
// per-index costs still balance.
func normalizeBatch(batch, n, workers int) int {
	if batch < 1 {
		batch = n / (workers * 4)
		if batch < 1 {
			batch = 1
		}
	}
	return batch
}

// makeLoop returns the claim loop every participant of one call runs:
// grab the next batch of consecutive indices off the shared cursor,
// process them, repeat until the cursor passes n.
func makeLoop(cursor *atomic.Int64, n, batch int, fn func(int)) func() {
	return func() {
		for {
			end := int(cursor.Add(int64(batch)))
			start := end - batch
			if start >= n {
				return
			}
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				fn(i)
			}
		}
	}
}

// Free is a bounded free list: it keeps up to its capacity of released
// values for reuse and drops the rest. What it retains between calls is
// therefore bounded whatever the peak number in use was, unlike a
// sync.Pool, which keeps every value put back until two garbage
// collections pass.
type Free[T any] struct {
	c   chan T
	new func() T
}

// NewFree returns a free list that keeps up to n values and makes new
// ones with alloc.
func NewFree[T any](n int, alloc func() T) *Free[T] {
	return &Free[T]{c: make(chan T, n), new: alloc}
}

// Get returns a kept value, or a new one when none is kept.
func (f *Free[T]) Get() T {
	select {
	case v := <-f.c:
		return v
	default:
		return f.new()
	}
}

// Put keeps v for a later Get, or drops it when the list is full.
func (f *Free[T]) Put(v T) {
	select {
	case f.c <- v:
	default:
	}
}
