package exec

import (
	"context"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
)

// SegmentScan is the index source: it pulls decoded cell batches from
// an index.RangeCursor, classifying each candidate cell against the
// margin before its postings are decoded — full-reject cells are pruned
// via the cursor's visit hook (no decode, counted CellsSkipped),
// full-accept cells flow out as Sure batches that skip downstream
// verification.
type SegmentScan struct {
	ctx  context.Context
	cur  *index.RangeCursor
	cls  Classifier
	sure bool // classification of the cell the cursor is decoding
	err  error
	out  Batch
	// visitFn is s.visit bound once, so pooled re-inits allocate no
	// closure.
	visitFn func(cell geo.Rect) bool
}

// init aims the scan at [from, to] of idx through cur, keeping any
// scratch both already hold — the pooled-pipeline path. Stats accumulate
// into st as the cursor walks (margin-rejected cells count as
// CellsSkipped).
func (s *SegmentScan) init(ctx context.Context, cur *index.RangeCursor, idx *index.TPI, cls Classifier, from, to int, st *index.ScanStats) {
	s.ctx, s.cur, s.cls = ctx, cur, cls
	s.sure, s.err = false, nil
	if s.visitFn == nil {
		s.visitFn = s.visit
	}
	cur.Reset(idx, cls.Area(), from, to, st, s.visitFn)
}

func (s *SegmentScan) visit(cell geo.Rect) bool {
	switch s.cls.Classify(cell) {
	case Reject:
		return false
	case Accept:
		s.sure = true
	default:
		s.sure = false
	}
	return true
}

// Next pulls the next non-empty cell batch.
func (s *SegmentScan) Next() (*Batch, bool) {
	if s.err != nil {
		return nil, false
	}
	if s.err = s.ctx.Err(); s.err != nil {
		return nil, false
	}
	cs, ok := s.cur.Next()
	if !ok {
		return nil, false
	}
	s.out = Batch{Ticks: cs.Ticks, IDs: cs.IDs, Sure: s.sure}
	return &s.out, true
}

func (s *SegmentScan) Err() error { return s.err }
