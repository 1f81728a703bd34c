package exec

import (
	"cmp"
	"slices"
)

// The planner is deliberately statistics-free: the only inputs are
// boundaries the routing view already knows (segment tick ranges) and
// selectivity the zone maps already store (populated-cell overlap ×
// tick-span overlap). Greedy ordering over those signals is enough —
// there is no cost model to stale-out and no histogram to maintain.

// TickRange is a closed tick span.
type TickRange struct {
	Lo, Hi int
}

// Empty reports whether the range holds no ticks.
func (r TickRange) Empty() bool { return r.Hi < r.Lo }

// Clip intersects r with s.
func (r TickRange) Clip(s TickRange) TickRange {
	return TickRange{Lo: max(r.Lo, s.Lo), Hi: min(r.Hi, s.Hi)}
}

// SplitSpan splits the closed span [from, to] at the boundaries of n
// ranged items (segments, periods): for each item i whose range
// intersects the span, emit receives the clipped sub-span. This is the
// one span-splitting helper shared by the window planner and the path
// stitcher, so the two cannot drift.
func SplitSpan(from, to, n int, rangeOf func(i int) TickRange, emit func(i int, r TickRange)) {
	want := TickRange{Lo: from, Hi: to}
	if want.Empty() {
		return
	}
	for i := 0; i < n; i++ {
		if r := rangeOf(i).Clip(want); !r.Empty() {
			emit(i, r)
		}
	}
}

// Scan is one planned per-segment scan.
type Scan struct {
	// ID indexes the caller's segment list.
	ID int
	// Span is the sub-span this scan answers, clipped to the segment.
	Span TickRange
	// Score is the segment's zone-map selectivity estimate for the
	// query (populated-cell overlap × tick-span overlap); zero means
	// the zone map proves the scan empty.
	Score float64
}

// Plan orders scans for execution: zone-disjoint scans (Score == 0) are
// pruned, the rest run largest-estimated-work first — the greedy
// longest-processing-time rule, which keeps the parallel fan-out's
// tail short without any statistics beyond the zone maps. ordered is
// sorted descending by Score with ID as a deterministic tie-break;
// pruned holds the dropped scans ascending by ID (each segment appears
// at most once per plan, so skip accounting is once per plan by
// construction). The plan is built in place: both results alias scans,
// which must not be reused afterwards.
func Plan(scans []Scan) (ordered, pruned []Scan) {
	slices.SortFunc(scans, func(a, b Scan) int {
		ap, bp := a.Score <= 0 || a.Span.Empty(), b.Score <= 0 || b.Span.Empty()
		if ap != bp {
			if ap {
				return 1 // pruned scans sort after every runnable one
			}
			return -1
		}
		if !ap && a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	n := len(scans)
	for n > 0 && (scans[n-1].Score <= 0 || scans[n-1].Span.Empty()) {
		n--
	}
	return scans[:n], scans[n:]
}
