package serve

import (
	"context"

	"ppqtraj/internal/exec"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/query"
	"ppqtraj/internal/traj"
)

// planWindow builds the window query's execution plan against one
// routing-view snapshot: the span is split at segment boundaries
// (exec.SplitSpan — the same helper the path stitcher uses), each
// sub-span is scored by its segment's zone-map selectivity, and
// exec.Plan prunes provably-empty scans and orders the rest
// largest-estimated-work first. Scan.ID indexes segs. Each overlapping
// segment appears exactly once in ordered+pruned, so skip accounting is
// once per plan by construction.
func planWindow(segs []*Segment, rect geo.Rect, from, to int) (ordered, pruned []exec.Scan) {
	scans := make([]exec.Scan, 0, len(segs))
	exec.SplitSpan(from, to, len(segs), func(i int) exec.TickRange {
		return exec.TickRange{Lo: segs[i].StartTick, Hi: segs[i].EndTick}
	}, func(i int, sp exec.TickRange) {
		s := segs[i]
		// The scan's candidate cells all lie inside rect expanded by the
		// segment's local-search margin, so the zone map is consulted
		// against that area. The extra epsilon mirrors the candidate
		// filter's slop and absorbs any floating-point disagreement
		// between the zone map's global grid and the index's
		// region-anchored cell ranges. Score 0 means MayIntersect is
		// false — the planner prunes the scan outright.
		scans = append(scans, exec.Scan{
			ID:    i,
			Span:  sp,
			Score: s.Zone.OverlapScore(rect.Expand(s.Eng.Margin()+1e-12), sp.Lo, sp.Hi),
		})
	})
	return exec.Plan(scans)
}

// shardResult is the outcome of one per-segment scan. ids is the flat
// per-tick candidate stream — the window merge sorts and deduplicates the
// concatenation once, so shards skip per-tick bucketing entirely.
type shardResult struct {
	ids     []traj.ID
	covered int
	scan    index.ScanStats
	// scanRows counts rows the index source emitted.
	scanRows int64
	// candidates counts post-margin-filter rows; visited counts distinct
	// raw trajectories fetched in exact mode.
	candidates int
	visited    int
}

// runIterShard answers one planned scan with a composed iterator plan
// (exec.ScanPipe, a pooled SegmentScan → CountRows → Verify chain)
// finished by a sink: the segment scan classifies each cell against the
// margin before decode (full-reject pruned, full-accept skips
// verification), Verify applies the reconstruction-distance filter to
// the rest, and the sink flattens surviving rows (approximate) or
// batch-verifies them against raw storage (exact). Instrument
// boundaries report per-operator time and row counts into the request
// trace when one is attached.
func runIterShard(ctx context.Context, s *Segment, rect geo.Rect, lo, hi int, exact bool, tr *obs.Trace) (shardResult, error) {
	var out shardResult
	cls := exec.Classifier{Rect: rect, Margin: s.Eng.Margin()}
	pipe := exec.OpenScanPipe(ctx, s.Eng.Idx, s.Eng.Sum, cls, lo, hi, &out.scan, &out.scanRows, tr)
	defer pipe.Close()
	it := pipe.Iterator()
	if exact {
		if s.Eng.Raw == nil {
			return out, query.ErrNoRaw
		}
		res, err := exec.ExactVerify(ctx, it, s.Eng.Raw, rect, lo, hi, &s.Eng.RawAccesses)
		if err != nil {
			return out, err
		}
		n := 0
		for _, c := range res.Cols {
			n += len(c.IDs)
		}
		out.ids = make([]traj.ID, 0, n)
		for _, c := range res.Cols {
			out.ids = append(out.ids, c.IDs...)
		}
		out.candidates = res.Candidates
		out.visited = res.Visited
	} else {
		ids, err := exec.AppendIDs(it, lo, hi, nil)
		if err != nil {
			return out, err
		}
		// One cell per trajectory per tick means the flat stream is
		// already duplicate-free per tick, so its length is the summed
		// per-tick candidate count.
		out.ids = ids
		out.candidates = len(ids)
	}
	out.covered = s.Eng.Idx.CoveredTicks(lo, hi)
	return out, nil
}
