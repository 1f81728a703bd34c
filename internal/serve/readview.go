package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"ppqtraj/internal/exec"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// readView is one request's consistent snapshot of the repository: the
// published segments, the sealed watermark, and the slice headers of the
// resident hot columns above the watermark in the request's tick range.
// Repository.readView takes it in one hot.mu read section, and every
// probe, path and scan of the request then reads it without a lock:
// segments are immutable and hot columns append-only. Compaction
// publishes a segment and trims its hot ticks in one write section, so
// every tick is in exactly one tier of the view.
type readView struct {
	segs   []*Segment // ascending, disjoint tick ranges
	sealed int        // ticks ≤ this are served by segs
	cols   []viewCol  // hot columns in range, ascending by tick
	// hotOverlaps reports whether the tail's resident tick span overlaps
	// the requested range above the watermark — the window planner's
	// "sources" accounting counts overlap, not residency.
	hotOverlaps bool
}

// viewCol is one hot column as a read view copied it.
type viewCol struct {
	tick int
	hotCol
}

func cmpTick(c viewCol, tick int) int { return cmp.Compare(c.tick, tick) }

// readView snapshots the routing view and the hot columns of ticks
// [from, to]; an empty range (to < from) takes the routing view alone.
// Only slice headers are copied under the lock, one per resident column.
func (r *Repository) readView(from, to int) readView {
	r.hot.mu.RLock()
	v := readView{segs: r.segs, sealed: r.sealedThrough}
	from = max(from, v.sealed+1)
	if from <= to {
		lo, hi := math.MaxInt, math.MinInt
		for t, c := range r.hot.cols {
			lo, hi = min(lo, t), max(hi, t)
			if t >= from && t <= to {
				v.cols = append(v.cols, viewCol{tick: t, hotCol: *c})
			}
		}
		v.hotOverlaps = max(from, lo) <= min(to, hi)
	}
	r.hot.mu.RUnlock()
	slices.SortFunc(v.cols, func(a, b viewCol) int { return cmp.Compare(a.tick, b.tick) })
	return v
}

// spanEnd is from+l, saturating so that a huge path length cannot wrap
// the span around.
func spanEnd(from, l int) int {
	if from > 0 && l > math.MaxInt-from {
		return math.MaxInt
	}
	return from + l
}

// lastTick is the last tick req reads: its probe tick, or the end of the
// path it asks for.
func (q STRQRequest) lastTick() int { return spanEnd(q.Tick, max(q.PathLen, 1)) - 1 }

// batchSpan is the tick range a batch reads: [min tick, max lastTick].
func batchSpan(reqs []STRQRequest) (from, to int) {
	from, to = math.MaxInt, math.MinInt
	for _, q := range reqs {
		from, to = min(from, q.Tick), max(to, q.lastTick())
	}
	return from, to
}

// answer runs one STRQ request against the view: the probe routed to the
// tier owning its tick, then each match's path. Probe and paths read the
// same view, so a path never comes from a newer state than the IDs it
// extends.
func (v *readView) answer(ctx context.Context, cell geo.Rect, req STRQRequest) (STRQAnswer, error) {
	ans := STRQAnswer{Tick: req.Tick, Cell: cell, Source: "none"}
	if err := ctx.Err(); err != nil {
		return ans, err
	}
	if req.Tick > v.sealed {
		i, ok := slices.BinarySearchFunc(v.cols, req.Tick, cmpTick)
		if ok {
			ans.IDs = v.cols[i].appendWithin(nil, cell)
			ans.Covered, ans.Candidates, ans.Source = true, len(ans.IDs), "hot"
		}
	} else if seg := findSegment(v.segs, req.Tick); seg != nil {
		res, err := seg.Eng.STRQRect(ctx, cell, req.Tick, req.Exact, nil)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return ans, err
			}
			return ans, fmt.Errorf("serve: segment %d: %w", seg.ID, err)
		}
		ans.Covered = res.Covered
		ans.IDs = res.IDs
		ans.Candidates = res.Candidates
		ans.Visited = res.Visited
		ans.Source = fmt.Sprintf("segment:%d", seg.ID)
	}
	if req.PathLen == 0 || len(ans.IDs) == 0 {
		return ans, nil
	}
	ans.Paths = make(map[traj.ID]Path, len(ans.IDs))
	for _, id := range ans.IDs {
		// Per-ID check: a wide match list reconstructs many paths, and
		// cancellation latency must not grow with the match count.
		if err := ctx.Err(); err != nil {
			return ans, err
		}
		ans.Paths[id] = v.path(ctx, id, req.Tick, req.PathLen)
	}
	return ans, ctx.Err()
}

// path reconstructs trajectory id over ticks [from, from+l): the
// quantized reconstruction from every segment of the view the span
// crosses, continued by the raw points of the view's hot columns.
// A done context stops the stitch and returns the path built so far.
func (v *readView) path(ctx context.Context, id traj.ID, from, l int) Path {
	end := spanEnd(from, l)
	// The sealed walk shares the window planner's span splitter
	// (exec.SplitSpan), so the two layers agree on segment-boundary
	// clipping by construction.
	out := Path{Start: from}
	started := false
	gap := false
	cursor := from
	exec.SplitSpan(from, end-1, len(v.segs), func(i int) exec.TickRange {
		return exec.TickRange{Lo: v.segs[i].StartTick, Hi: v.segs[i].EndTick}
	}, func(i int, sub exec.TickRange) {
		// A segment entirely behind the stitch cursor (or any segment
		// once the path is complete or broken) contributes nothing.
		if gap || cursor >= end || sub.Hi < cursor || ctx.Err() != nil {
			return
		}
		pts, st := v.segs[i].reconstructedPath(id, cursor, end-cursor)
		if len(pts) == 0 {
			return
		}
		if !started {
			out.Start = st
			started = true
		} else if st != out.Start+len(out.Points) {
			gap = true // trajectory ended and this is another life of the ID
			return
		}
		out.Points = append(out.Points, pts...)
		cursor = st + len(pts)
	})
	// The hot residual continues the path only where the sealed walk
	// reached the watermark, or starts it where the walk found nothing.
	if gap || started && cursor <= v.sealed || ctx.Err() != nil {
		return out
	}
	hotPts, hotStart := v.hotPath(id, max(from, v.sealed+1), end)
	if len(hotPts) == 0 {
		return out
	}
	if !started {
		out.Start = hotStart
		out.Points = hotPts
	} else if hotStart == out.Start+len(out.Points) {
		out.Points = append(out.Points, hotPts...)
	}
	return out
}

// hotPath collects id's raw positions from the view's hot columns over
// ticks [from, end), in tick order, stopping at the first gap after the
// trajectory appears (positions are contiguous by the ingest contract).
// It visits only the columns the view copied, so its cost is bounded by
// the resident tail, not by the span.
func (v *readView) hotPath(id traj.ID, from, end int) (pts []geo.Point, start int) {
	i, _ := slices.BinarySearchFunc(v.cols, from, cmpTick)
	for _, c := range v.cols[i:] {
		if c.tick >= end {
			break
		}
		j, ok := c.find(id)
		if len(pts) > 0 && (!ok || c.tick != start+len(pts)) {
			break
		}
		if ok {
			if len(pts) == 0 {
				start = c.tick
			}
			pts = append(pts, c.pts[j])
		}
	}
	return pts, start
}
