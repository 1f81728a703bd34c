// Package query implements spatio-temporal query processing over the
// quantized summary (§5.2): STRQ (Definition 5.2) and TPQ
// (Definition 5.3), the CQC-driven local-search strategy that makes
// recall 1, and the exact mode that verifies candidates against raw
// trajectories to drive precision to 1 (the "ratio of trajectories
// visited" measure of Table 4).
package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/store"
	"ppqtraj/internal/traj"
)

// ErrNoRaw is returned by exact-mode queries on an engine that has no raw
// dataset attached: exact verification is impossible, so the caller must
// either fall back to approximate mode or attach raw storage.
var ErrNoRaw = errors.New("query: exact STRQ requires raw dataset access")

// Source is the summary-side contract the engine queries against. It is
// satisfied by core.Summary (PPQ/E-PQ/Q-trajectory) and by
// baseline.FlatSummary (Product/Residual Quantization, TrajStore), so the
// paper's "we extended these methods with our indexing approach" fairness
// rule falls out naturally.
type Source interface {
	// ReconstructedPoint returns the reconstruction of trajectory id at
	// the given tick.
	ReconstructedPoint(id traj.ID, tick int) (geo.Point, bool)
	// ReconstructPath returns the reconstructions for ticks [from, from+l),
	// clipped to the trajectory's range.
	ReconstructPath(id traj.ID, from, l int) []geo.Point
	// SortedTicks lists every tick with data, ascending.
	SortedTicks() []int
	// TrajIDs lists all trajectory IDs, ascending.
	TrajIDs() []traj.ID
	// StreamColumns feeds every reconstructed column to fn in ascending
	// tick order, IDs ascending within a column, in O(points) — the
	// engine-construction fast path (probing ReconstructedPoint for every
	// (tick, id) pair would cost O(ticks × trajectories) even for absent
	// trajectories). The slices passed to fn are only valid during the
	// call; fn must copy anything it retains. A non-nil error from fn
	// aborts the stream and is returned.
	StreamColumns(fn func(tick int, ids []traj.ID, pts []geo.Point) error) error
	// MaxDeviation bounds ‖original − reconstruction‖ — the local-search
	// margin (Lemma 3's (√2/2)·g_s for CQC summaries, ε₁ otherwise).
	MaxDeviation() float64
}

// Engine answers queries from a summary plus its TPI. Raw is optional: it
// is only consulted in exact mode, and every consultation is counted —
// this is the second-step access cost the paper measures.
//
// Once built (and its fields no longer reassigned), an Engine is safe for
// concurrent readers: STRQ/TPQ/PathMAE only read the sealed index and the
// summary, and the access counter is atomic. Seal/Append on the underlying
// TPI must not run concurrently with queries.
type Engine struct {
	Sum Source
	Idx *index.TPI
	Raw *traj.Dataset

	// MarginCap, when > 0, bounds the local-search radius. Summaries with
	// unbounded deviation (e.g. fixed-budget baselines on wide-span data)
	// would otherwise force the probe to scan enormous cell ranges; with a
	// cap, such methods trade recall for feasibility — exactly the regime
	// the paper marks "×" in Table 2.
	MarginCap float64

	// RawAccesses counts trajectories fetched from raw storage for exact
	// verification (cumulative across queries, atomic).
	RawAccesses atomic.Int64

	// scratch pools the per-probe search buffers (candidate and kept ID
	// slices): a query-serving loop fires thousands of probes per second,
	// and re-allocating the same transient slices per call dominated the
	// allocation profile.
	scratch sync.Pool
}

// searchScratch is one pooled set of probe buffers. The slices never
// escape a call: results handed to the caller are always freshly sized
// copies, so returning the scratch to the pool is unconditionally safe.
type searchScratch struct {
	cand []traj.ID
	kept []traj.ID
}

// getScratch fetches (or creates) a scratch set.
func (e *Engine) getScratch() *searchScratch {
	if sc, ok := e.scratch.Get().(*searchScratch); ok {
		return sc
	}
	return &searchScratch{}
}

// BuildEngine indexes the summary's reconstructed points into a fresh TPI
// (the paper indexes T̂ or T̂′ interchangeably; we index the CQC-refined
// reconstructions when available) and returns an Engine. Columns stream
// straight from the summary into TPI.Append — O(points) end to end.
func BuildEngine(sum Source, opts index.Options, raw *traj.Dataset) (*Engine, error) {
	tpi := index.NewTPI(opts)
	err := sum.StreamColumns(func(tick int, ids []traj.ID, pts []geo.Point) error {
		tpi.Append(ids, pts, tick)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tpi.Seal(); err != nil {
		return nil, err
	}
	return &Engine{Sum: sum, Idx: tpi, Raw: raw}, nil
}

// Margin returns the local-search radius — the summary's deviation bound,
// clipped to MarginCap when set.
func (e *Engine) Margin() float64 {
	m := e.Sum.MaxDeviation()
	if e.MarginCap > 0 && m > e.MarginCap {
		return e.MarginCap
	}
	return m
}

// STRQResult reports one STRQ evaluation.
type STRQResult struct {
	// IDs is the answer: in approximate mode the filtered candidate list,
	// in exact mode the verified list (precision 1).
	IDs []traj.ID
	// Candidates is the candidate-list size after local search, before
	// verification.
	Candidates int
	// Cell is the g_c cell the query point mapped to.
	Cell geo.Rect
	// Covered is false when the query point lies outside every indexed
	// region (the result is then empty).
	Covered bool
	// Visited counts raw trajectories accessed by this query (exact mode).
	Visited int
}

// distToRect is the Euclidean distance from p to the closed rectangle r
// (zero when p is inside). Alias of geo.Point.DistToRect, shared with
// the iterator executor's margin filter so the two paths cannot drift.
func distToRect(p geo.Point, r geo.Rect) float64 { return p.DistToRect(r) }

// STRQ answers "which trajectories were in the g_c cell of p at tick t".
// With exact=false it returns the local-search candidate list filtered by
// reconstructed positions (recall 1 by Lemma 3; precision < 1 possible).
// With exact=true each candidate's raw trajectory is consulted and the
// result has precision and recall 1; the accesses are counted in Visited.
// rt, when non-nil, charges page I/Os for the index probes (Table 9).
// Exact mode on an engine without raw access returns ErrNoRaw. ctx bounds
// the work: a cancelled or expired context aborts the search and returns
// ctx.Err() (use context.Background() when no bound is wanted).
func (e *Engine) STRQ(ctx context.Context, p geo.Point, tick int, exact bool, rt *store.ReadTracker) (*STRQResult, error) {
	cell, ok := e.Idx.CellRect(p, tick)
	if !ok {
		return &STRQResult{}, nil
	}
	return e.searchRect(ctx, cell, tick, exact, rt)
}

// STRQRect answers the rectangle-anchored STRQ variant: which trajectories
// were inside rect at tick t. Unlike STRQ, the query region is supplied by
// the caller instead of being derived from the engine's own region/cell
// layout, so two engines built over different shardings of the same data
// agree on the exact-mode answer — the contract the serving layer's
// segment fan-out relies on. Covered is false when the tick falls outside
// every indexed period. ctx bounds the work as in STRQ.
func (e *Engine) STRQRect(ctx context.Context, rect geo.Rect, tick int, exact bool, rt *store.ReadTracker) (*STRQResult, error) {
	if e.Idx.PeriodOf(tick) == nil {
		return &STRQResult{}, nil
	}
	return e.searchRect(ctx, rect, tick, exact, rt)
}

// ctxCheckEvery is how many exact-mode raw verifications run between
// context checks: frequent enough that a cancelled query stops within
// microseconds, rare enough that the check never shows in a profile.
const ctxCheckEvery = 64

// searchRect is the shared local-search + filter + (optional) verification
// pipeline of STRQ and STRQRect over an explicit query rectangle.
func (e *Engine) searchRect(ctx context.Context, cell geo.Rect, tick int, exact bool, rt *store.ReadTracker) (*STRQResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &STRQResult{Covered: true, Cell: cell}
	m := e.Margin()
	// Local search (§5.2): scan every cell within the Lemma 3 margin of
	// the query cell, so a true-resident whose reconstruction drifted into
	// a neighboring cell is still found. The candidate and kept buffers
	// come from the engine's scratch pool; the result handed back to the
	// caller is a right-sized copy, so the scratch is safe to reuse on the
	// next probe.
	area := cell.Expand(m)
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	cand := e.Idx.AppendLookupArea(sc.cand[:0], area, tick, rt)
	sc.cand = cand
	kept := sc.kept[:0]
	for i, id := range cand {
		// The candidate list can span a whole region's population on wide
		// rects; without a periodic check a blown deadline could not
		// interrupt an approximate-mode scan at all.
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				sc.kept = kept
				return nil, err
			}
		}
		rp, ok := e.Sum.ReconstructedPoint(id, tick)
		if !ok {
			continue
		}
		if distToRect(rp, cell) <= m+1e-12 {
			kept = append(kept, id)
		}
	}
	sc.kept = kept
	res.Candidates = len(kept)
	if !exact {
		res.IDs = append(make([]traj.ID, 0, len(kept)), kept...)
		return res, nil
	}
	if e.Raw == nil {
		return nil, ErrNoRaw
	}
	for i, id := range kept {
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		res.Visited++
		e.RawAccesses.Add(1)
		tr, ok := e.Raw.Lookup(id)
		if !ok {
			// The raw store does not cover this trajectory (e.g. it was
			// ingested after the store was attached) — a configuration
			// gap, not a crash: surface it as the ErrNoRaw class.
			return nil, fmt.Errorf("query: trajectory %d absent from raw dataset: %w", id, ErrNoRaw)
		}
		if tp, ok := tr.At(tick); ok && cell.Contains(tp) {
			res.IDs = append(res.IDs, id)
		}
	}
	return res, nil
}

// TPQResult is one trajectory-path-query answer: the reconstructed
// sub-trajectories over [t, t+l) for every STRQ match.
type TPQResult struct {
	STRQ  *STRQResult
	Paths map[traj.ID][]geo.Point
}

// TPQ answers Definition 5.3: run STRQ at (p, tick), then reproduce the
// next l positions of every matched trajectory directly from the indexed
// summary — no raw access, no full reconstruction. ctx bounds the work as
// in STRQ; a context error can surface after the range step, mid-way
// through path reproduction.
func (e *Engine) TPQ(ctx context.Context, p geo.Point, tick, l int, exact bool, rt *store.ReadTracker) (*TPQResult, error) {
	s, err := e.STRQ(ctx, p, tick, exact, rt)
	if err != nil {
		return nil, err
	}
	out := &TPQResult{STRQ: s, Paths: make(map[traj.ID][]geo.Point, len(s.IDs))}
	for i, id := range s.IDs {
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out.Paths[id] = e.Sum.ReconstructPath(id, tick, l)
	}
	return out, nil
}

// PathMAE returns the mean absolute deviation between a trajectory's
// reconstructed path over [tick, tick+l) and its raw points — the Table 3
// measure. ok is false when the trajectory has no points in the range.
func (e *Engine) PathMAE(id traj.ID, tick, l int) (float64, bool) {
	if e.Raw == nil {
		return 0, false
	}
	rec := e.Sum.ReconstructPath(id, tick, l)
	if len(rec) == 0 {
		return 0, false
	}
	tr, ok := e.Raw.Lookup(id)
	if !ok {
		return 0, false
	}
	lo := tick
	if lo < tr.Start {
		lo = tr.Start
	}
	var sum float64
	n := 0
	for i, rp := range rec {
		if op, ok := tr.At(lo + i); ok {
			sum += rp.Dist(op)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// GroundTruth returns the trajectories whose *raw* position at tick lies
// in the given cell — the oracle for precision/recall measurement.
func GroundTruth(d *traj.Dataset, cell geo.Rect, tick int) []traj.ID {
	var out []traj.ID
	for _, tr := range d.All() {
		if p, ok := tr.At(tick); ok && cell.Contains(p) {
			out = append(out, tr.ID)
		}
	}
	return out
}

// PrecisionRecall compares got against want (both ID sets).
func PrecisionRecall(got, want []traj.ID) (precision, recall float64) {
	if len(got) == 0 && len(want) == 0 {
		return 1, 1
	}
	wantSet := make(map[traj.ID]bool, len(want))
	for _, id := range want {
		wantSet[id] = true
	}
	hit := 0
	for _, id := range got {
		if wantSet[id] {
			hit++
		}
	}
	if len(got) > 0 {
		precision = float64(hit) / float64(len(got))
	} else {
		precision = 1
	}
	if len(want) > 0 {
		recall = float64(hit) / float64(len(want))
	} else {
		recall = 1
	}
	return precision, recall
}
