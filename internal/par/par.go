// Package par provides the one fork-join primitive of the serving path,
// capped at GOMAXPROCS goroutines: EachCtx hands out single indices from
// one shared counter, so slow items do not pile up behind one worker. Use
// it for independent per-slot tasks of uneven cost, submitted largest
// first — segment builds and loads, batch probes, window segment scans.
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
