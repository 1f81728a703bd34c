package index

import (
	"sort"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// This file holds the per-cell halves of the segment-native range scan
// that RangeCursor (cursor.go) drives: the multi-tick counterpart of
// LookupArea. A T-tick window answered by per-tick probes re-resolves the
// candidate cells, re-walks each cell's posting list, and re-decodes (or
// re-fetches from the cache) T times; the cursor resolves the cells once,
// walks each cell's tick-sorted postings once across the whole span, and
// decodes each posting once.

// ScanStats counts the range-scan planner's per-cell work; callers
// accumulate it into their own zone-map skip telemetry.
type ScanStats struct {
	// CellsScanned is how many populated cells had postings walked.
	CellsScanned int
	// CellsSkipped is how many populated cells were pruned before any
	// decode: either their per-cell tick range (the cell-level zone map)
	// missed the span, or the caller's visit callback declined the cell.
	CellsSkipped int
	// DecodedBytes is the size of the ID slabs cells decoded into (4
	// bytes per ID); DecodeNanos is the time those decodes took.
	DecodedBytes int64
	DecodeNanos  int64
}

// Add accumulates o into s.
func (s *ScanStats) Add(o ScanStats) {
	s.CellsScanned += o.CellsScanned
	s.CellsSkipped += o.CellsSkipped
	s.DecodedBytes += o.DecodedBytes
	s.DecodeNanos += o.DecodeNanos
}

// mayOverlap is the per-cell tick-range zone check: postings are
// tick-sorted, so the first and last entries bound the cell's populated
// span.
func (c *cellData) mayOverlap(from, to int) bool {
	n := len(c.sealed)
	return n > 0 && int(c.sealed[0].tick) <= to && int(c.sealed[n-1].tick) >= from
}

// scanCell appends one cell's postings over [from, to] to out. It
// decodes every posting of the span into one slab sized by the postings'
// ID counts, and each emitted list is a capped sub-slice of it, so the
// lists stay valid after the next cell is scanned. Scans bypass the
// decoded-cell cache: a window reads each chunk about once, and passing
// it through the cache would only evict the probes' working set.
func (pi *PI) scanCell(c *cellData, from, to int, st *ScanStats, out *CellScan) {
	lo := sort.Search(len(c.sealed), func(i int) bool { return int(c.sealed[i].tick) >= from })
	hi, n := lo, 0
	for ; hi < len(c.sealed) && int(c.sealed[hi].tick) <= to; hi++ {
		n += int(c.sealed[hi].n)
	}
	if n == 0 {
		return
	}
	t0 := time.Now()
	slab := make([]traj.ID, 0, n)
	for _, tp := range c.sealed[lo:hi] {
		st0 := len(slab)
		pl := pi.posting(tp)
		var err error
		// A corrupt posting reads as empty, as it does to a probe.
		if slab, err = pi.coder.AppendDecode(slab, &pl); err != nil || len(slab) == st0 {
			continue
		}
		out.Ticks = append(out.Ticks, int(tp.tick))
		out.IDs = append(out.IDs, slab[st0:len(slab):len(slab)])
	}
	st.DecodeNanos += time.Since(t0).Nanoseconds()
	st.DecodedBytes += 4 * int64(len(slab))
}

// CoveredTicks counts the ticks of [from, to] that fall inside some
// period — the ticks a per-tick probe loop would have reported Covered
// for, without running any probe.
func (t *TPI) CoveredTicks(from, to int) int {
	n := 0
	for i := range t.Periods {
		p := &t.Periods[i]
		if lo, hi := max(from, p.Start), min(to, p.End); lo <= hi {
			n += hi - lo + 1
		}
	}
	return n
}

// PopulatedCells calls emit with the clipped rectangle and populated tick
// range of every non-empty cell across all periods — the raw material of
// a segment-level zone map. Cells come in period, region and directory
// order. The TPI must be sealed.
func (t *TPI) PopulatedCells(emit func(cell geo.Rect, tickLo, tickHi int)) {
	t.mustBeSealed()
	for i := range t.Periods {
		t.Periods[i].PI.PopulatedCells(emit)
	}
}

// PopulatedCells is the per-PI form of TPI.PopulatedCells.
func (pi *PI) PopulatedCells(emit func(cell geo.Rect, tickLo, tickHi int)) {
	pi.mustBeSealed()
	for _, r := range pi.Regions {
		for _, e := range r.dir {
			if s := r.cellPtr(e.ci).sealed; len(s) > 0 {
				emit(r.cellRectOf(e.key), int(s[0].tick), int(s[len(s)-1].tick))
			}
		}
	}
}
