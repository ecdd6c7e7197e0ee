// Package parallel provides the bounded worker pool shared by the
// analysis engines. Both delay analyses fan deterministic, independent
// units of work (per-path trajectory bounds, same-rank port bounds) out
// over a fixed number of goroutines; the callers index their work so
// results land in a pre-sized slice and are merged in canonical order,
// which is what makes the parallel analyses bit-identical to their
// sequential runs (see DESIGN.md, "Concurrency and determinism").
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"afdx/internal/obs"
)

// Workers normalises a worker-count option: values <= 0 select
// GOMAXPROCS (use every available core), everything else is taken
// as-is. 1 means strictly sequential execution on the calling
// goroutine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines (after Workers normalisation) and returns the error of the
// lowest failing index, or nil.
//
// The contract mirrors a sequential loop exactly:
//
//   - with workers == 1 (or n <= 1) everything runs on the calling
//     goroutine, in index order, stopping at the first error;
//   - with workers > 1, indices are claimed in ascending order, every
//     index below a failing one is still evaluated, and the error
//     returned is the one the sequential loop would have hit first.
//
// Indices strictly above the lowest known failure are skipped (their
// results would be discarded anyway), so an early error does not cost a
// full sweep.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach with pool observability: when ctx carries an
// obs.Registry, the pool counts batches and tasks (deterministic —
// the work set is fixed) and samples goroutine occupancy at each task
// start (best-effort — a scheduling observation). The ctx is not used
// for cancellation; error semantics are exactly ForEach's.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	reg := obs.RegistryFrom(ctx)
	var (
		batches   *obs.Counter
		tasks     *obs.Counter
		occupancy *obs.Histogram
	)
	if reg != nil {
		batches = reg.Counter("parallel.batches", obs.Deterministic,
			"ForEach invocations (fan-out points)")
		tasks = reg.Counter("parallel.tasks", obs.Deterministic,
			"work items executed by the pool (equals the work-set size on error-free runs)")
		occupancy = reg.Histogram("parallel.pool_occupancy", obs.BestEffort,
			"goroutines busy in the pool, sampled at each task start")
	}
	batches.Inc()

	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			tasks.Inc()
			occupancy.Observe(1)
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		firstErr atomic.Int64 // the lowest failing index so far, n while none
		active   atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		err      error // the error of index firstErr, under mu
	)
	firstErr.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || i > firstErr.Load() {
					return
				}
				tasks.Inc()
				occupancy.Observe(active.Add(1))
				if e := fn(int(i)); e != nil {
					// Keep the error only if no lower index failed first
					// (another worker may have, meanwhile).
					mu.Lock()
					if i < firstErr.Load() {
						firstErr.Store(i)
						err = e
					}
					mu.Unlock()
				}
				active.Add(-1)
			}
		}()
	}
	wg.Wait()
	return err
}
