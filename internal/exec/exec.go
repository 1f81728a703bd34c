// Package exec is the streaming query executor: a small pull-based
// iterator/operator algebra over the index's cell-batch cursor, plus a
// statistics-free greedy planner. Pruning, decode, ctx-checking, and
// merge are composable operators — a source pulls decoded cell batches
// lazily, filters are pushed below the decode via the cursor's visit
// hook, verification and collection are sinks — so a new query shape is
// a new composition, not a new hand-fused pipeline. The serving layer's
// window queries run only on these plans.
//
// The unit of flow is one cell's postings (a Batch), not one row: the
// per-pull overhead is paid once per populated cell (tens per query),
// not once per row.
//
// Every iterator is single-goroutine and context-aware: Next observes
// the pipeline's ctx, so a cancelled query stops between cell batches
// without threading abort flags through callbacks (the ctxcancel
// analyzer enforces the Next-loop ctx check for this package).
package exec

import (
	"ppqtraj/internal/traj"
)

// Batch is the unit of data flow: the postings of one cell within the
// plan's span, ticks ascending. Sure marks batches from full-accept
// cells (entirely within the local-search margin) whose rows need no
// per-trajectory reconstruction check. Batches and their slices are
// owned by the producing iterator and valid only until its next Next
// call; the inner ID slices must never be modified.
type Batch struct {
	Ticks []int
	IDs   [][]traj.ID
	Sure  bool
}

// Rows counts the batch's (tick, id) rows.
func (b *Batch) Rows() int {
	n := 0
	for _, ids := range b.IDs {
		n += len(ids)
	}
	return n
}

// Column is one tick's final answer: IDs ascending, deduplicated.
type Column struct {
	Tick int
	IDs  []traj.ID
}

// Iterator is the pull contract every source and operator implements.
// Next returns the next non-empty batch, or ok=false when the stream is
// exhausted or failed — the caller must then check Err. Iterators are
// not safe for concurrent use.
type Iterator interface {
	Next() (*Batch, bool)
	// Err reports the first error that terminated the stream (nil on
	// clean exhaustion). Context cancellation surfaces here as ctx.Err().
	Err() error
}

// ctxCheckEvery bounds how many per-row filter steps run between
// context checks inside a single batch, mirroring query.Engine's
// cadence: frequent enough that a cancelled query stops within
// microseconds, rare enough to stay invisible in profiles.
const ctxCheckEvery = 64
