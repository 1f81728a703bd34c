package serve

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/traj"
)

// hotCol is one tick's ingested points, parallel slices sorted by ID —
// the mutable mirror of traj.Column. Columns are append-only: ingest
// never rewrites an element below a column's current length, so a copy
// of the slice headers (a readView) stays valid without the lock.
type hotCol struct {
	ids []traj.ID
	pts []geo.Point
}

// find returns the slot of id in the (ID-sorted) column, or (-1, false).
func (c *hotCol) find(id traj.ID) (int, bool) {
	i := sort.Search(len(c.ids), func(i int) bool { return c.ids[i] >= id })
	if i < len(c.ids) && c.ids[i] == id {
		return i, true
	}
	return -1, false
}

// appendWithin appends the IDs whose position lies inside rect to dst.
// Hot data is unquantized, so this is the exact answer.
func (c *hotCol) appendWithin(dst []traj.ID, rect geo.Rect) []traj.ID {
	for i, id := range c.ids {
		if rect.Contains(c.pts[i]) {
			dst = append(dst, id)
		}
	}
	return dst
}

// hotTail is the repository's mutable tier: freshly ingested points kept
// raw (exact, no quantization) and directly queryable, until the
// compactor drains them into a sealed segment. mu also guards the
// repository's routing view (see Repository). Queries never scan under
// it: Repository.readView copies the routing view and the resident
// columns' slice headers in one read section, and the append-only
// column rule keeps those copies valid after the lock is released.
type hotTail struct {
	mu       sync.RWMutex
	cols     map[int]*hotCol
	lastSeen map[traj.ID]int // last ingested tick per trajectory
	points   int
	floor    int // sealed/frozen watermark: ingest must land strictly above
}

func newHotTail() *hotTail {
	return &hotTail{
		cols:     make(map[int]*hotCol),
		lastSeen: make(map[traj.ID]int),
		floor:    -1,
	}
}

// freeze raises the ingest floor to bound: once it returns, no future
// ingest can land at tick ≤ bound, so a snapshot(bound) taken afterwards
// is complete forever — the compactor's correctness invariant.
func (h *hotTail) freeze(bound int) {
	h.mu.Lock()
	if bound > h.floor {
		h.floor = bound
	}
	h.mu.Unlock()
}

// ingest merges one tick of points. Every point must land strictly above
// the sealed/frozen watermark, and a trajectory already live above the
// watermark must continue contiguously (gaps would corrupt the
// per-trajectory entry indexing of the segment the compactor later
// builds). Validation runs before any mutation, so a rejected column
// leaves the tail untouched.
//
// logged, when non-nil, runs after validation and before any mutation —
// the repository's write-ahead hook. Running it under the tail's lock
// pins the WAL's append order to the tail's application order, which is
// what lets a crash replay reproduce this exact state; a logged error
// aborts the ingest with the tail untouched.
//
// tr (nil-safe) receives the validate and apply stage laps; the logged
// hook laps its own wal_append in between, so the three stages partition
// the tail's critical section.
func (h *hotTail) ingest(tick int, ids []traj.ID, pts []geo.Point, logged func() error, tr *obs.Trace) error {
	if len(ids) != len(pts) {
		return fmt.Errorf("serve: ingest tick %d: %d ids vs %d points", tick, len(ids), len(pts))
	}
	if len(ids) == 0 {
		return nil // a pointless empty batch must not register the tick
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	floor := h.floor
	if tick <= floor {
		return fmt.Errorf("serve: ingest tick %d at or below sealed watermark %d", tick, floor)
	}
	var inBatch map[traj.ID]struct{}
	if len(ids) > 1 {
		inBatch = make(map[traj.ID]struct{}, len(ids))
	}
	for i, id := range ids {
		if !pts[i].IsFinite() {
			return fmt.Errorf("serve: non-finite position %v for trajectory %d at tick %d", pts[i], id, tick)
		}
		if last, ok := h.lastSeen[id]; ok && last > floor {
			if tick <= last {
				return fmt.Errorf("serve: trajectory %d already has a point at tick %d (last %d)", id, tick, last)
			}
			if tick != last+1 {
				return fmt.Errorf("serve: trajectory %d skips ticks %d..%d (sampling must be contiguous)", id, last+1, tick-1)
			}
		}
		if inBatch != nil {
			if _, dup := inBatch[id]; dup {
				return fmt.Errorf("serve: trajectory %d appears twice in the tick-%d batch", id, tick)
			}
			inBatch[id] = struct{}{}
		}
	}
	tr.Lap("validate")
	if logged != nil {
		if err := logged(); err != nil {
			return err
		}
	}
	col := h.cols[tick]
	if col == nil {
		col = &hotCol{}
		h.cols[tick] = col
	}
	// Append the whole batch, then restore ID order with one sort: IDs are
	// unique per (tick) by the checks above, and a single O(n log n) pass
	// beats per-point sorted inserts for arbitrary HTTP payloads. The sort
	// is skipped when the column stays ordered (the common case: ID-sorted
	// columns arriving one batch per tick). A read view may still be
	// reading an existing column's elements, so a batch that breaks its
	// order is sorted into fresh slices (Clip makes append reallocate); a
	// new column stays invisible to readers until this section ends.
	prevLen := len(col.ids)
	sorted := slices.IsSorted(ids) && (prevLen == 0 || col.ids[prevLen-1] < ids[0])
	if !sorted && prevLen > 0 {
		col.ids, col.pts = slices.Clip(col.ids), slices.Clip(col.pts)
	}
	col.ids = append(col.ids, ids...)
	col.pts = append(col.pts, pts...)
	if !sorted {
		sort.Sort((*hotColSort)(col))
	}
	for _, id := range ids {
		h.lastSeen[id] = tick
	}
	h.points += len(ids)
	tr.Lap("apply")
	return nil
}

// hotColSort sorts a column's parallel slices by ID.
type hotColSort hotCol

func (c *hotColSort) Len() int           { return len(c.ids) }
func (c *hotColSort) Less(i, j int) bool { return c.ids[i] < c.ids[j] }
func (c *hotColSort) Swap(i, j int) {
	c.ids[i], c.ids[j] = c.ids[j], c.ids[i]
	c.pts[i], c.pts[j] = c.pts[j], c.pts[i]
}

// tickSpan returns the min/max resident tick (ok=false when empty).
func (h *hotTail) tickSpan() (lo, hi int, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for t := range h.cols {
		if !ok {
			lo, hi, ok = t, t, true
			continue
		}
		lo, hi = min(lo, t), max(hi, t)
	}
	return lo, hi, ok
}

// snapshot returns every column with tick ≤ bound, ascending — the
// compactor's input. Only the slice headers are copied: once freeze(bound)
// has returned, no ingest can touch a column ≤ bound again (the floor
// check rejects it, and columns are append-only), so the builder reads
// the hot tail's own arrays without any lock while the columns stay
// queryable until trim.
func (h *hotTail) snapshot(bound int) []*traj.Column {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ticks := make([]int, 0, len(h.cols))
	for t := range h.cols {
		if t <= bound {
			ticks = append(ticks, t)
		}
	}
	sort.Ints(ticks)
	out := make([]*traj.Column, 0, len(ticks))
	for _, t := range ticks {
		c := h.cols[t]
		out = append(out, &traj.Column{Tick: t, IDs: c.ids, Points: c.pts})
	}
	return out
}

// trim drops every column with tick ≤ bound (they are now served by a
// sealed segment), along with the lastSeen entries that can no longer
// influence admission — the contiguity check only consults entries above
// the floor, so keeping older ones would just leak memory as the ID
// population rotates. The caller holds h.mu for writing.
func (h *hotTail) trim(bound int) {
	for t, c := range h.cols {
		if t <= bound {
			h.points -= len(c.ids)
			delete(h.cols, t)
		}
	}
	for id, last := range h.lastSeen {
		if last <= h.floor {
			delete(h.lastSeen, id)
		}
	}
}
