// Package par provides the two fork-join primitives of the build and
// serving paths, both capped at GOMAXPROCS goroutines.
//
// For splits an index range into fixed contiguous chunks, never
// work-stolen, so each output slot is written by exactly one worker and a
// parallel run produces bit-identical results to a sequential one; the
// chunk index selects per-worker scratch. Use it for reductions and for
// loops whose output depends on the split.
//
// EachCtx hands out single indices from one shared counter, so slow items
// do not pile up behind one worker. Use it for independent per-slot tasks
// of uneven cost, submitted largest first.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n > 0 is used as-is, anything
// else means runtime.NumCPU().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// For splits [0, n) into at most `workers` contiguous chunks and runs
// body(w, lo, hi) for each, where w is the chunk index (usable to select
// per-worker scratch). It returns when every chunk is done.
//
// With workers ≤ 1, n ≤ grain, or GOMAXPROCS = 1 the body runs inline on
// the caller's goroutine — the sequential fast path. grain is the minimum
// chunk size worth a goroutine; pass 0 for the default of 64.
func For(workers, n, grain int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 64
	}
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (n + grain - 1) / grain; workers > max {
		workers = max
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// EachCtx runs body(ctx, i) once for every i in [0, n) on at most
// `workers` goroutines (and at most GOMAXPROCS and n). Each worker claims
// the next unclaimed index from one atomic counter, so indices start in
// ascending order and a caller that submits its items largest first gets
// the longest-processing-time-first schedule. The body must write only
// state owned by slot i.
//
// When the caps leave one worker the body runs inline, in index order,
// on the caller's goroutine. An already-done context skips the work
// entirely; otherwise cancellation is the body's to observe through ctx.
// EachCtx waits for every started body and returns ctx.Err().
func EachCtx(ctx context.Context, workers, n int, body func(ctx context.Context, i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(ctx, i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				body(ctx, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
