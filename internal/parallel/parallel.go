// Package parallel provides the shared-work infrastructure of the
// back-end: a bounded worker pool, deterministic fan-out helpers
// (input-ordered results, first-error-by-index semantics), a
// synthesis memo cache with single-flight computation, and per-stage
// timing counters.
//
// The pool admits *leaf* units of work (one controller synthesis, one
// clustering run, one conformance pair, one benchmark simulation).
// Composite tasks — a whole flow arm, a whole design — run as plain
// goroutines via All and only their leaves take pool slots, so nested
// fan-out can never deadlock the pool.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a counting semaphore bounding concurrent leaf work.
type Pool struct {
	sem chan struct{}
}

// NewPool creates a pool admitting up to workers concurrent units;
// workers <= 0 means runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// Default returns the process-wide pool, sized to GOMAXPROCS. Callers
// that pass a nil *Pool to Map share this global budget.
func Default() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// Workers returns the pool's admission bound.
func (p *Pool) Workers() int { return cap(p.sem) }

func (p *Pool) acquire() { p.sem <- struct{}{} }
func (p *Pool) release() { <-p.sem }

// Acquire takes one pool slot, or gives up when the context is
// cancelled first, returning the context's error. A nil error means the
// caller holds a slot and must release it.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run executes one leaf unit of work under pool admission.
func (p *Pool) Run(f func() error) error {
	return p.RunCtx(context.Background(), f)
}

// RunCtx executes one leaf unit of work under pool admission,
// abandoning it (without running f) when the context is cancelled
// while waiting for a slot or before f starts. A running f is not
// interrupted; long leaves that want finer-grained cancellation must
// check ctx themselves.
func (p *Pool) RunCtx(ctx context.Context, f func() error) error {
	if err := p.Acquire(ctx); err != nil {
		return err
	}
	defer p.release()
	if err := ctx.Err(); err != nil {
		return err
	}
	return f()
}

// Map runs f(0..n-1) with each call admitted through the pool (nil =
// the Default pool), returning results in input order. Error semantics
// are deterministic and match a sequential loop: the returned error is
// the one from the lowest failing index. Once an item fails, items with
// higher indices may be skipped (their result slots keep zero values);
// items with lower indices always run, so the winning error never
// depends on scheduling.
func Map[T any](p *Pool, n int, f func(int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), p, n, f)
}

// MapCtx is Map with cancellation: items still waiting for a pool slot
// when the context is cancelled are skipped and fail with the context's
// error, which then propagates under the same lowest-failing-index
// rule. Items whose f already started run to completion.
func MapCtx[T any](ctx context.Context, p *Pool, n int, f func(int) (T, error)) ([]T, error) {
	if p == nil {
		p = Default()
	}
	out := make([]T, n)
	errs := make([]error, n)
	var minErr atomic.Int64
	minErr.Store(int64(n))
	fail := func(i int, err error) {
		errs[i] = err
		for {
			cur := minErr.Load()
			if int64(i) >= cur || minErr.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := p.Acquire(ctx); err != nil {
				fail(i, err)
				return
			}
			defer p.release()
			if int64(i) > minErr.Load() {
				return // a lower index already failed; this result cannot matter
			}
			if err := ctx.Err(); err != nil {
				fail(i, err)
				return
			}
			v, err := f(i)
			if err != nil {
				fail(i, err)
				return
			}
			out[i] = v
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// MapAllCtx runs f(0..n-1) concurrently WITHOUT pool admission — the
// items are composite tasks whose leaves are pool-gated — returning
// results in input order. Error semantics match MapCtx: the returned
// error is the one from the lowest failing index, and items observing
// an already-failed lower index may be skipped. Use it to fan out
// work that itself acquires pool slots (a controller synthesis whose
// per-function minimizations are the leaves); running such composites
// under Map would hold a slot while waiting for another and could
// deadlock the pool.
func MapAllCtx[T any](ctx context.Context, n int, f func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var minErr atomic.Int64
	minErr.Store(int64(n))
	fail := func(i int, err error) {
		errs[i] = err
		for {
			cur := minErr.Load()
			if int64(i) >= cur || minErr.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if int64(i) > minErr.Load() {
				return // a lower index already failed; this result cannot matter
			}
			if err := ctx.Err(); err != nil {
				fail(i, err)
				return
			}
			v, err := f(i)
			if err != nil {
				fail(i, err)
				return
			}
			out[i] = v
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// All runs the thunks concurrently WITHOUT pool admission — they are
// composite tasks whose leaves are pool-gated — and returns the first
// error by index (same deterministic semantics as Map).
func All(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func() error) {
			defer wg.Done()
			errs[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Counter is an atomic event counter.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// Go launches fn on its own goroutine. It is the blessed escape hatch
// for fire-and-forget work (signal watchers, long-lived workers) that
// genuinely does not fit Map/All: the gostmt vet pass forbids naked go
// statements outside this package, so every spawn site is greppable as
// a parallel.Go call. The caller still owns fn's lifecycle — pair it
// with a WaitGroup or context as usual.
func Go(fn func()) {
	go fn()
}
