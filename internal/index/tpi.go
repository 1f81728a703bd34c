package index

import (
	"time"

	"ppqtraj/internal/cache"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/store"
	"ppqtraj/internal/traj"
)

// Options configures TPI construction (Algorithm 4).
type Options struct {
	// EpsS is ε_s, the spatial partition threshold for PI construction.
	EpsS float64
	// GC is g_c, the grid cell size of each region.
	GC float64
	// EpsC is ε_c, the per-region TRD dropping-rate threshold
	// (Equation 14).
	EpsC float64
	// EpsD is ε_d, the ADR threshold that triggers a Re-build
	// (Algorithm 4 line 6).
	EpsD float64
	// Seed makes PI clustering deterministic.
	Seed int64
}

// Period is one time interval [Start, End] indexed by a single PI.
type Period struct {
	Start, End int
	PI         *PI
}

// Stats reports TPI build work (Tables 7 and 8).
type Stats struct {
	Rebuilds   int // "Re-build" events (also = number of periods - adjustments)
	Insertions int // "Insertion" events (new regions added mid-period)
	BuildTime  time.Duration
}

// TPI is the temporal partition-based index: a sequence of periods, each
// owning one PI (Algorithm 4).
type TPI struct {
	opts     Options
	Periods  []Period
	stats    Stats
	lastTick int
	sealed   bool

	// Append scratch, reused across ticks and released by Seal.
	cover  []int   // per-region covered counts of the current tick
	regIdx []int   // per-point covering-region index (-1 = uncovered)
	uncov  []int   // indices of uncovered points
	hint   []int32 // per-trajectory last covering region (reset on rebuild)
}

// maxHintID bounds the per-trajectory hint table (IDs are dense in
// practice; sparse huge IDs simply skip the hint).
const maxHintID = 1 << 21

// hintFor returns the cached region index for id, or -1.
func (t *TPI) hintFor(id traj.ID) int32 {
	if int(id) < len(t.hint) {
		return t.hint[id]
	}
	return -1
}

// setHint records the covering region index for id, growing the table on
// demand.
func (t *TPI) setHint(id traj.ID, ri int32) {
	if int(id) >= maxHintID {
		return
	}
	for int(id) >= len(t.hint) {
		t.hint = append(t.hint, -1)
	}
	t.hint[id] = ri
}

// resetHints invalidates the hint table (the region set changed).
func (t *TPI) resetHints() {
	for i := range t.hint {
		t.hint[i] = -1
	}
}

// NewTPI creates an empty TPI.
func NewTPI(opts Options) *TPI {
	if opts.GC <= 0 {
		panic("index: TPI requires GC > 0")
	}
	if opts.EpsS <= 0 {
		panic("index: TPI requires EpsS > 0")
	}
	return &TPI{opts: opts, lastTick: -1}
}

// Stats returns the build counters.
func (t *TPI) Stats() Stats { return t.stats }

// NumPeriods returns the number of time periods.
func (t *TPI) NumPeriods() int { return len(t.Periods) }

// current returns the open period (the last one).
func (t *TPI) current() *Period {
	if len(t.Periods) == 0 {
		return nil
	}
	return &t.Periods[len(t.Periods)-1]
}

// adr computes the Average Dropping Rate of TRD between the current
// period's baseline and tick te (Equations 12–14), given the per-region
// counts of covered points at te (indexed like pi.Regions).
func (t *TPI) adr(pi *PI, covered []int) float64 {
	n := len(pi.Regions)
	if n == 0 {
		return 0
	}
	drops := 0
	for i, r := range pi.Regions {
		base := r.baseCount
		if base == 0 {
			continue // region had no baseline occupancy; cannot drop
		}
		h1 := (float64(covered[i]) - float64(base)) / float64(base)
		if h1 < 0 && -h1 > t.opts.EpsC {
			drops++
		}
	}
	return float64(drops) / float64(n)
}

// Append feeds one timestamp of (already reconstructed or raw) points
// into the index — Algorithm 4's loop body. Ticks must arrive in strictly
// increasing order, and all before Seal.
func (t *TPI) Append(ids []traj.ID, points []geo.Point, tick int) {
	start := time.Now()
	defer func() { t.stats.BuildTime += time.Since(start) }()
	if len(ids) != len(points) {
		panic("index: ids/points length mismatch")
	}
	if t.sealed {
		panic("index: Append after Seal")
	}
	if tick <= t.lastTick {
		panic("index: ticks must be strictly increasing")
	}
	t.lastTick = tick

	cur := t.current()
	if cur == nil {
		pi := BuildPI(ids, points, tick, t.opts.EpsS, t.opts.GC, t.opts.Seed)
		t.Periods = append(t.Periods, Period{Start: tick, End: tick, PI: pi})
		t.stats.Rebuilds++
		return
	}

	// Split into covered / uncovered (Algorithm 4 line 5) and count
	// covered points per region for the ADR check. Counts and per-point
	// region indices live in scratch slices reused across ticks; the
	// region probe runs once per point and its result feeds both the ADR
	// check and the insert below.
	if cap(t.cover) < len(cur.PI.Regions) {
		t.cover = make([]int, len(cur.PI.Regions))
	}
	t.cover = t.cover[:len(cur.PI.Regions)]
	for i := range t.cover {
		t.cover[i] = 0
	}
	if cap(t.regIdx) < len(points) {
		t.regIdx = make([]int, len(points))
	}
	t.regIdx = t.regIdx[:len(points)]
	for i, p := range points {
		// Trajectories rarely change region tick to tick, so the cached
		// region is verified first; only misses pay the linear scan.
		ri := -1
		if h := t.hintFor(ids[i]); h >= 0 && int(h) < len(cur.PI.Regions) &&
			cur.PI.Regions[h].Rect.Contains(p) {
			ri = int(h)
		} else {
			ri = cur.PI.regionIndexOf(p)
			if ri >= 0 {
				t.setHint(ids[i], int32(ri))
			}
		}
		t.regIdx[i] = ri
		if ri >= 0 {
			t.cover[ri]++
		}
	}

	if t.adr(cur.PI, t.cover) > t.opts.EpsD {
		// Re-build (lines 6–9): close the period and start fresh.
		pi := BuildPI(ids, points, tick, t.opts.EpsS, t.opts.GC, t.opts.Seed)
		t.Periods = append(t.Periods, Period{Start: tick, End: tick, PI: pi})
		t.stats.Rebuilds++
		t.resetHints() // region indices refer to the closed period's PI
		return
	}

	// Reuse: insert covered points, extend for uncovered (lines 10–11).
	// Coverage was just computed, so feed it back instead of re-probing
	// every point.
	t.uncov = cur.PI.insertByRegion(ids, points, tick, t.regIdx, t.uncov[:0])
	rest := t.uncov
	if len(rest) > 0 {
		subIDs := make([]traj.ID, len(rest))
		subPts := make([]geo.Point, len(rest))
		for i, idx := range rest {
			subIDs[i] = ids[idx]
			subPts[i] = points[idx]
		}
		cur.PI.extend(subIDs, subPts, tick)
		t.stats.Insertions++
	}
	cur.End = tick
}

// Seal compresses the posting lists of every period and releases the
// build state (see PI.Seal). A sealed TPI is read-only: Append panics,
// and a second Seal is a no-op.
func (t *TPI) Seal() error {
	if t.sealed {
		return nil
	}
	for i := range t.Periods {
		if err := t.Periods[i].PI.Seal(); err != nil {
			return err
		}
	}
	t.cover, t.regIdx, t.uncov, t.hint = nil, nil, nil, nil
	t.sealed = true
	return nil
}

// mustBeSealed panics on a TPI that is still being built (see
// PI.mustBeSealed).
func (t *TPI) mustBeSealed() {
	if !t.sealed {
		panic("index: read of an unsealed TPI")
	}
}

// SetCache attaches a shared decoded-cell cache to every period's PI,
// keyed under the given owner token. A nil cache detaches.
func (t *TPI) SetCache(c *cache.Cache, owner uint64) {
	for i := range t.Periods {
		t.Periods[i].PI.SetCache(c, owner, uint32(i))
	}
}

// PeriodOf returns the period containing the tick, or nil.
func (t *TPI) PeriodOf(tick int) *Period {
	// Periods are ordered and non-overlapping; binary search would do, but
	// period counts are small.
	for i := range t.Periods {
		p := &t.Periods[i]
		if tick >= p.Start && tick <= p.End {
			return p
		}
	}
	return nil
}

// LookupArea performs the local-search probe over the period containing
// tick (see §5.2); rt, when non-nil, charges disk I/Os. The TPI must be
// sealed.
func (t *TPI) LookupArea(area geo.Rect, tick int, rt *store.ReadTracker) []traj.ID {
	return t.AppendLookupArea(nil, area, tick, rt)
}

// AppendLookupArea is LookupArea appending into dst (see
// PI.AppendLookupArea); dst is returned unchanged when the tick falls
// outside every period.
func (t *TPI) AppendLookupArea(dst []traj.ID, area geo.Rect, tick int, rt *store.ReadTracker) []traj.ID {
	t.mustBeSealed()
	period := t.PeriodOf(tick)
	if period == nil {
		return dst
	}
	return period.PI.AppendLookupArea(dst, area, tick, rt)
}

// CellRect returns the g_c cell rectangle that p maps to at the given
// tick — the STRQ query granularity (Definition 5.2). ok is false when p
// is not covered by any region of the period's PI.
func (t *TPI) CellRect(p geo.Point, tick int) (geo.Rect, bool) {
	period := t.PeriodOf(tick)
	if period == nil {
		return geo.Rect{}, false
	}
	r := period.PI.regionOf(p)
	if r == nil {
		return geo.Rect{}, false
	}
	return r.CellRect(p), true
}

// SizeBytes sums the serialized sizes of all periods' PIs.
func (t *TPI) SizeBytes() int {
	n := 0
	for i := range t.Periods {
		n += t.Periods[i].PI.SizeBytes()
	}
	return n
}

// AssignPages lays out every period on the page store in time order.
func (t *TPI) AssignPages(ps *store.PageStore) {
	for i := range t.Periods {
		t.Periods[i].PI.AssignPages(ps)
	}
}
