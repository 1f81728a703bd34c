package exec

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// CollectResult is what a drained pipeline hands the caller.
type CollectResult struct {
	// Cols holds the non-empty per-tick answers, ascending by tick, IDs
	// ascending and deduplicated. Every slice is freshly allocated — no
	// aliasing of iterator scratch or index lists.
	Cols []Column
	// Candidates counts the kept rows before exact verification — the
	// per-tick STRQResult.Candidates summed over the span.
	Candidates int
	// Visited counts raw trajectories fetched by exact verification
	// (distinct per plan, zero in approximate mode).
	Visited int
}

// RawLookup is the raw-storage contract of exact verification —
// satisfied by traj.Dataset.
type RawLookup interface {
	Lookup(id traj.ID) (*traj.Trajectory, bool)
}

// ErrNoRaw mirrors query.ErrNoRaw for pipelines verified without an
// attached raw store.
var ErrNoRaw = fmt.Errorf("exec: exact verification requires raw dataset access")

// ExactVerify drains in and verifies every row against raw storage,
// batched per trajectory: rows are gathered as (id, tick) pairs, sorted
// id-major, and each distinct trajectory is fetched exactly once for
// all its candidate ticks, counted in Visited. accesses, when non-nil,
// is bumped once per fetch (the engine's RawAccesses counter).
func ExactVerify(ctx context.Context, in Iterator, raw RawLookup, rect geo.Rect, from, to int, accesses *atomic.Int64) (*CollectResult, error) {
	if raw == nil {
		return nil, ErrNoRaw
	}
	span := to - from + 1
	if span < 0 {
		span = 0
	}
	type idTick struct {
		id   traj.ID
		tick int32
	}
	var pairs []idTick
	if err := drain(in, from, to, func(tick int, ids []traj.ID) {
		for _, id := range ids {
			pairs = append(pairs, idTick{id: id, tick: int32(tick)})
		}
	}); err != nil {
		return nil, err
	}
	res := &CollectResult{Candidates: len(pairs)}
	slices.SortFunc(pairs, func(a, b idTick) int {
		if a.id != b.id {
			return cmp.Compare(a.id, b.id)
		}
		return cmp.Compare(a.tick, b.tick)
	})
	cols := make([][]traj.ID, span)
	for i := 0; i < len(pairs); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := pairs[i].id
		res.Visited++
		if accesses != nil {
			accesses.Add(1)
		}
		tr, ok := raw.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("exec: trajectory %d absent from raw dataset: %w", id, ErrNoRaw)
		}
		for ; i < len(pairs) && pairs[i].id == id; i++ {
			t := int(pairs[i].tick)
			if i > 0 && pairs[i-1] == pairs[i] {
				continue // defense in depth; upstream emits each (id, tick) once
			}
			if tp, ok := tr.At(t); ok && rect.Contains(tp) {
				cols[t-from] = append(cols[t-from], id)
			}
		}
	}
	for i, ids := range cols {
		if len(ids) > 0 {
			res.Cols = append(res.Cols, Column{Tick: from + i, IDs: ids})
		}
	}
	return res, nil
}

// AppendIDs drains in and appends every in-span row's ID to dst,
// returning the extended slice — the window query's flattening sink.
// When the caller only needs the distinct-ID union of the whole span
// (sorted and deduplicated once after merging every pipeline), per-tick
// bucketing and sorting are pure overhead, so this sink skips them.
func AppendIDs(in Iterator, from, to int, dst []traj.ID) ([]traj.ID, error) {
	err := drain(in, from, to, func(_ int, ids []traj.ID) {
		dst = append(dst, ids...)
	})
	return dst, err
}

// drain pulls in to exhaustion, forwarding every in-span posting.
func drain(in Iterator, from, to int, emit func(tick int, ids []traj.ID)) error {
	for {
		b, ok := in.Next()
		if !ok {
			return in.Err()
		}
		for i, tick := range b.Ticks {
			if tick < from || tick > to {
				continue
			}
			emit(tick, b.IDs[i])
		}
	}
}
