package index

import (
	"sort"
	"time"

	"ppqtraj/internal/cache"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// This file holds the per-cell halves of the segment-native range scan
// that RangeCursor (cursor.go) drives: the multi-tick counterpart of
// LookupArea. A T-tick window answered by per-tick probes re-resolves the
// candidate cells, re-walks each cell's posting list, and re-decodes (or
// re-fetches from the cache) T times; the cursor resolves the cells once,
// walks each cell's tick-sorted postings once across the whole span, and
// decodes each tick chunk at most once.

// ScanStats counts the range-scan planner's per-cell work; callers
// accumulate it into their own zone-map skip telemetry.
type ScanStats struct {
	// CellsScanned is how many populated cells had postings walked.
	CellsScanned int
	// CellsSkipped is how many populated cells were pruned before any
	// decode: either their per-cell tick range (the cell-level zone map)
	// missed the span, or the caller's visit callback declined the cell.
	CellsSkipped int
	// CacheHits / CacheMisses count decoded-chunk cache lookups on the
	// sealed cached path (both zero on raw or uncached scans).
	CacheHits   int
	CacheMisses int
	// DecodedBytes is the cached cost of chunks decoded on misses;
	// DecodeNanos is the time spent in those decodes.
	DecodedBytes int64
	DecodeNanos  int64
}

// Add accumulates o into s.
func (s *ScanStats) Add(o ScanStats) {
	s.CellsScanned += o.CellsScanned
	s.CellsSkipped += o.CellsSkipped
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.DecodedBytes += o.DecodedBytes
	s.DecodeNanos += o.DecodeNanos
}

// cellMayOverlap is the per-cell tick-range zone check: postings are
// tick-sorted, so the first and last entries bound the cell's populated
// span.
func (pi *PI) cellMayOverlap(c *cellData, from, to int) bool {
	if pi.sealed {
		if n := len(c.sealed); n > 0 {
			return int(c.sealed[0].tick) <= to && int(c.sealed[n-1].tick) >= from
		}
		return false
	}
	if n := len(c.raw); n > 0 {
		return c.raw[0].tick <= to && c.raw[n-1].tick >= from
	}
	return false
}

// scanCell emits one cell's postings over [from, to], decoding each tick
// chunk at most once. With a cache attached the chunk entries are shared
// with (and populate) the decoded-cell cache, so a later per-tick probe
// of the same cell hits.
func (pi *PI) scanCell(ri, ci int32, c *cellData, from, to int, st *ScanStats, emit func(tick int, ids []traj.ID)) {
	if !pi.sealed {
		i := sort.Search(len(c.raw), func(i int) bool { return c.raw[i].tick >= from })
		for ; i < len(c.raw) && c.raw[i].tick <= to; i++ {
			if len(c.raw[i].ids) > 0 {
				emit(c.raw[i].tick, c.raw[i].ids)
			}
		}
		return
	}
	i := sort.Search(len(c.sealed), func(i int) bool { return int(c.sealed[i].tick) >= from })
	if pi.cellCache == nil {
		for ; i < len(c.sealed) && int(c.sealed[i].tick) <= to; i++ {
			if ids := pi.decodePosting(c.sealed[i]); len(ids) > 0 {
				emit(int(c.sealed[i].tick), ids)
			}
		}
		return
	}
	for i < len(c.sealed) && int(c.sealed[i].tick) <= to {
		ch := cache.Chunk(int(c.sealed[i].tick))
		key := cache.Key{Owner: pi.cacheOwner, PI: pi.cacheID, Reg: uint32(ri), Cell: ci, Chunk: ch}
		var d *decodedChunk
		if v, ok := pi.cellCache.Get(key); ok {
			d = v.(*decodedChunk)
			st.CacheHits++
		} else {
			t0 := time.Now()
			d = pi.decodeChunk(c, ch)
			st.DecodeNanos += time.Since(t0).Nanoseconds()
			st.DecodedBytes += d.cost
			st.CacheMisses++
			pi.cellCache.Put(key, d, d.cost)
		}
		for j := range d.ticks {
			if t := int(d.ticks[j]); t >= from && t <= to && len(d.ids[j]) > 0 {
				emit(t, d.ids[j])
			}
		}
		for i < len(c.sealed) && cache.Chunk(int(c.sealed[i].tick)) == ch {
			i++
		}
	}
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
// a segment-level zone map. Iteration order is unspecified.
func (t *TPI) PopulatedCells(emit func(cell geo.Rect, tickLo, tickHi int)) {
	for i := range t.Periods {
		t.Periods[i].PI.PopulatedCells(emit)
	}
}

// PopulatedCells is the per-PI form of TPI.PopulatedCells.
func (pi *PI) PopulatedCells(emit func(cell geo.Rect, tickLo, tickHi int)) {
	for _, r := range pi.Regions {
		for k, ci := range r.cells {
			c := r.cellPtr(ci)
			var lo, hi int
			switch {
			case pi.sealed && len(c.sealed) > 0:
				lo, hi = int(c.sealed[0].tick), int(c.sealed[len(c.sealed)-1].tick)
			case !pi.sealed && len(c.raw) > 0:
				lo, hi = c.raw[0].tick, c.raw[len(c.raw)-1].tick
			default:
				continue
			}
			emit(r.cellRectOf(k), lo, hi)
		}
	}
}
