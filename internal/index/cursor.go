package index

import (
	"sort"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// This file is the range scan's driver: a resumable cursor that yields
// its work one populated cell at a time, so an iterator executor can
// interleave decode with downstream filtering and abort between cells
// without threading abort flags through callbacks. Cells are enumerated
// by forEachCellIn and decoded by scanCell (scan.go).

// forEachCellIn calls f for every populated cell of r whose coordinates
// fall inside area's cell range, walking the (X, Y)-sorted directory with
// band skipping. Both window scans and LookupArea probes enumerate cells
// this way. f returning false aborts the walk; forEachCellIn reports
// whether it ran to completion.
func (r *Region) forEachCellIn(area geo.Rect, f func(k cellKey, ci int32) bool) bool {
	x0, y0, x1, y1 := r.cellRange(area)
	i := sort.Search(len(r.dir), func(i int) bool {
		k := r.dir[i].key
		return k.X > x0 || (k.X == x0 && k.Y >= y0)
	})
	for i < len(r.dir) && r.dir[i].key.X <= x1 {
		k := r.dir[i].key
		switch {
		case k.Y > y1:
			// Past this column's band: jump to the next column.
			i += sort.Search(len(r.dir)-i, func(j int) bool {
				return r.dir[i+j].key.X > k.X
			})
			continue
		case k.Y < y0:
			// Below the band: jump to the band's start within the
			// column (or past the column).
			i += sort.Search(len(r.dir)-i, func(j int) bool {
				kj := r.dir[i+j].key
				return kj.X > k.X || kj.Y >= y0
			})
			continue
		}
		if !f(k, r.dir[i].ci) {
			return false
		}
		i++
	}
	return true
}

// CellScan is one cursor batch: every emitted (tick, posting) of a
// single populated cell within the cursor's span, ticks ascending. The
// outer Ticks/IDs slices are cursor-owned scratch that the next Next call
// overwrites. The inner ID lists are freshly decoded for this batch: they
// may be kept, but not modified.
type CellScan struct {
	// Cell is the cell's rectangle, clipped to its region.
	Cell  geo.Rect
	Ticks []int
	IDs   [][]traj.ID
}

// pendingCell is one enumerated-but-not-yet-decoded candidate cell.
type pendingCell struct {
	ri int32
	k  cellKey
	ci int32
}

// RangeCursor pulls the range scan's work one cell at a time. Cell
// enumeration is materialized a region at a time (directory walking
// only — cheap); decode and stats accounting happen lazily per pull, so
// abandoning the cursor early skips the decode work of every cell not
// pulled.
type RangeCursor struct {
	t        *TPI
	area     geo.Rect
	from, to int
	st       *ScanStats
	visit    func(cell geo.Rect) bool

	period int // next period of t to open
	pi     *PI // currently open period's index (nil before open / after close)
	lo, hi int // span clipped to the open period
	ri     int // next region of pi to enumerate

	pend []pendingCell
	np   int // next pending cell
	out  CellScan

	// pendFn is the per-region callback, built once per cursor (it
	// captures only c) so fill allocates nothing: a pooled cursor keeps
	// it across Resets.
	pendFn func(k cellKey, ci int32) bool
	fillRI int32 // region index pendFn is enumerating
}

// RangeCursor returns a cursor over every populated cell intersecting
// area with postings in [from, to], across all overlapping periods.
// Cells whose per-cell tick range (first/last posting tick — the
// cell-level zone map) cannot intersect [from, to] are skipped before
// visit. visit, when non-nil, is called with each remaining cell's
// rectangle before any decode; returning false skips the cell (the
// caller's margin pruning hook). Skipped cells count in
// st.CellsSkipped, walked ones in st.CellsScanned; both happen lazily as
// cells are pulled. The TPI must be sealed.
func (t *TPI) RangeCursor(area geo.Rect, from, to int, st *ScanStats, visit func(cell geo.Rect) bool) *RangeCursor {
	c := &RangeCursor{}
	c.Reset(t, area, from, to, st, visit)
	return c
}

// Reset re-aims the cursor at a new scan, keeping its scratch (pending
// cells, output batch, callback) — the pooled-scratch path for
// executors that open one cursor per planned segment scan. The TPI must
// be sealed.
func (c *RangeCursor) Reset(t *TPI, area geo.Rect, from, to int, st *ScanStats, visit func(cell geo.Rect) bool) {
	t.mustBeSealed()
	c.t, c.area, c.from, c.to, c.st, c.visit = t, area, from, to, st, visit
	c.period, c.pi, c.lo, c.hi, c.ri = 0, nil, 0, 0, 0
	c.pend, c.np = c.pend[:0], 0
	c.out.Ticks, c.out.IDs = c.out.Ticks[:0], c.out.IDs[:0]
	if c.pendFn == nil {
		c.pendFn = func(k cellKey, ci int32) bool {
			c.pend = append(c.pend, pendingCell{ri: c.fillRI, k: k, ci: ci})
			return true
		}
	}
}

// Next returns the next non-empty cell batch, or ok=false when the scan
// is exhausted. The returned CellScan's outer slices are only valid until
// the next call; its inner ID lists stay valid (see CellScan).
func (c *RangeCursor) Next() (*CellScan, bool) {
	for {
		for c.np < len(c.pend) {
			pc := c.pend[c.np]
			c.np++
			r := c.pi.Regions[pc.ri]
			cd := r.cellPtr(pc.ci)
			if !cd.mayOverlap(c.lo, c.hi) {
				c.st.CellsSkipped++
				continue
			}
			if c.visit != nil && !c.visit(r.cellRectOf(pc.k)) {
				c.st.CellsSkipped++
				continue
			}
			c.st.CellsScanned++
			c.out.Cell = r.cellRectOf(pc.k)
			c.out.Ticks = c.out.Ticks[:0]
			c.out.IDs = c.out.IDs[:0]
			c.pi.scanCell(cd, c.lo, c.hi, c.st, &c.out)
			if len(c.out.Ticks) > 0 {
				return &c.out, true
			}
		}
		if !c.fill() {
			return nil, false
		}
	}
}

// fill enumerates the next non-empty batch of candidate cells — the next
// region with populated cells in the area, opening the next overlapping
// period when the current one is exhausted. Reports false at end of scan.
func (c *RangeCursor) fill() bool {
	c.pend = c.pend[:0]
	c.np = 0
	for {
		if c.pi == nil {
			for c.period < len(c.t.Periods) {
				p := &c.t.Periods[c.period]
				c.period++
				if lo, hi := max(c.from, p.Start), min(c.to, p.End); lo <= hi {
					c.pi, c.lo, c.hi, c.ri = p.PI, lo, hi, 0
					break
				}
			}
			if c.pi == nil {
				return false
			}
		}
		// Hot loop: keep the area and region index in locals so the
		// enumeration does not pay for the cursor's state living behind a
		// pointer.
		regions, area, ri := c.pi.Regions, c.area, c.ri
		for ri < len(regions) {
			r := regions[ri]
			c.fillRI = int32(ri)
			ri++
			if !r.Rect.Intersects(area) {
				continue
			}
			r.forEachCellIn(area, c.pendFn)
			if len(c.pend) > 0 {
				c.ri = ri
				return true
			}
		}
		c.ri = ri
		c.pi = nil
	}
}
