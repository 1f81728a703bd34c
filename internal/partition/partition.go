// Package partition implements PPQ's grouped-modeling partitioner
// (§3.2): assigning each live trajectory at each timestamp to a partition
// by spatial proximity (Equation 7) or lag-k autocorrelation similarity
// (Equation 8), so that one prediction function f_j can model each group.
//
// The partitioner is incremental across time (§3.2.2): points first keep
// the partition of their previous timestamp; partitions that violate the
// ε_p bound are re-split with the bounded clustering loop (Lemma 1);
// nearby partitions are merged — at most once each per step — to avoid
// fragmentation (Lemma 2 complexity O(q′m′N′l + q′q)).
package partition

import (
	"math"
	"sort"
	"time"

	"ppqtraj/internal/cluster"
	"ppqtraj/internal/traj"
)

// Mode selects the similarity driving Equations 7/8.
type Mode int

const (
	// Spatial partitions on point positions (PPQ-S, Equation 7).
	Spatial Mode = iota
	// Autocorr partitions on lag-k autocorrelation features (PPQ-A,
	// Equation 8).
	Autocorr
	// None disables partitioning: a single global partition (E-PQ).
	None
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Spatial:
		return "spatial"
	case Autocorr:
		return "autocorr"
	default:
		return "none"
	}
}

// Options configures a Partitioner.
type Options struct {
	Mode Mode
	// EpsP is ε_p, the partition radius threshold of Equations 7/8.
	EpsP float64
	// Step is the per-round partition-count increment of the bounded
	// clustering loop (the "a" of Lemma 1). Defaults to 1.
	Step int
	// MaxIter bounds Lloyd iterations per clustering round.
	MaxIter int
	// MaxPartitions caps q as a safety valve (0 = no cap).
	MaxPartitions int
	// Seed makes partitioning deterministic.
	Seed int64
}

// Stats accumulates the work counters reported by the Figure 7/8
// experiments.
type Stats struct {
	Steps       int           // timestamps processed
	Resplits    int           // partitions re-split for violating ε_p
	Merges      int           // partition merges performed
	NewParts    int           // partitions created
	Elapsed     time.Duration // total partitioning time (Figure 7)
	FromScratch int           // points partitioned without carry-over
	CarriedOver int           // points that kept their previous partition
}

// Result is one timestamp's partitioning: Groups[g] lists indices into the
// input slice belonging to partition g; Labels[g] is that partition's
// stable identity across timestamps.
type Result struct {
	Groups [][]int
	Labels []int
	Q      int // number of partitions (Figure 8's q)
}

type part struct {
	centroid []float64
	members  []int // indices into the current step's input
}

// assignEntry is a trajectory's partition label, stamped with the Step
// epoch that wrote it. Entries from older epochs are stale (the
// trajectory departed); stamping avoids rebuilding the assignment map on
// every timestamp.
type assignEntry struct {
	label int
	epoch uint64
}

// Partitioner carries partition state across timestamps.
type Partitioner struct {
	opts   Options
	assign map[traj.ID]assignEntry // trajectory → label, epoch-stamped
	epoch  uint64                  // current Step's stamp
	next   int                     // next fresh partition label
	stats  Stats
}

// New creates a Partitioner.
func New(opts Options) *Partitioner {
	if opts.Step < 1 {
		opts.Step = 1
	}
	if opts.MaxIter < 1 {
		opts.MaxIter = 15
	}
	return &Partitioner{opts: opts, assign: make(map[traj.ID]assignEntry)}
}

// Stats returns accumulated work counters.
func (p *Partitioner) Stats() Stats { return p.stats }

func centroidOf(feats [][]float64, members []int) []float64 {
	if len(members) == 0 {
		return nil
	}
	dim := len(feats[members[0]])
	c := make([]float64, dim)
	for _, i := range members {
		for d, v := range feats[i] {
			c[d] += v
		}
	}
	inv := 1 / float64(len(members))
	for d := range c {
		c[d] *= inv
	}
	return c
}

func maxRadius(feats [][]float64, members []int, centroid []float64) float64 {
	max := 0.0
	for _, i := range members {
		var s float64
		for d, v := range feats[i] {
			dd := v - centroid[d]
			s += dd * dd
		}
		if s > max {
			max = s
		}
	}
	// max holds the squared distance; return the distance.
	return math.Sqrt(max)
}

// Step partitions one timestamp's trajectories. ids and feats are
// parallel; feats[i] is the similarity feature of ids[i] (2-D position for
// Spatial, k-dim AR coefficients for Autocorr). It returns the grouping
// and updates the carried state.
func (p *Partitioner) Step(ids []traj.ID, feats [][]float64) *Result {
	start := time.Now()
	defer func() { p.stats.Elapsed += time.Since(start) }()
	p.stats.Steps++

	p.epoch++
	if len(ids) == 0 {
		return &Result{}
	}
	if p.opts.Mode == None {
		// Single global partition with a stable label.
		group := make([]int, len(ids))
		for i := range group {
			group[i] = i
		}
		for _, id := range ids {
			p.assign[id] = assignEntry{label: 0, epoch: p.epoch}
		}
		return &Result{Groups: [][]int{group}, Labels: []int{0}, Q: 1}
	}

	// Phase 1: carry-forward. Points keep their previous partition; new
	// points join the nearest existing centroid if within ε_p, else go to
	// the fresh pool.
	parts := map[int]*part{}
	var fresh []int
	// Previous centroids are recomputed lazily from this step's features,
	// so first bucket by previous label.
	for i, id := range ids {
		if e, ok := p.assign[id]; ok && e.epoch == p.epoch-1 {
			pt := parts[e.label]
			if pt == nil {
				pt = &part{}
				parts[e.label] = pt
			}
			pt.members = append(pt.members, i)
			p.stats.CarriedOver++
		} else {
			fresh = append(fresh, i)
			p.stats.FromScratch++
		}
	}
	for _, pt := range parts {
		pt.centroid = centroidOf(feats, pt.members)
	}
	// New points: nearest existing centroid within ε_p, else fresh pool.
	// For 2-D (Spatial) features a uniform grid over the centroids turns
	// the O(fresh × q) scan into an O(fresh) 3×3-neighborhood probe (the
	// quant.Codebook idiom); high-dimensional Autocorr features keep the
	// linear path.
	if len(parts) > 0 && len(fresh) > 0 {
		grid := newCentroidGrid(p.opts.EpsP, feats)
		var candidates []int
		if grid == nil {
			candidates = sortedLabels(parts)
		} else {
			for _, l := range sortedLabels(parts) {
				grid.add(l, parts[l].centroid)
			}
		}
		stillFresh := fresh[:0]
		for _, i := range fresh {
			if grid != nil {
				candidates = grid.neighbors(feats[i])
			}
			bestLabel, bestD := -1, p.opts.EpsP
			for _, l := range candidates {
				if d := distVec(feats[i], parts[l].centroid); d <= bestD {
					bestLabel, bestD = l, d
				}
			}
			if bestLabel >= 0 {
				parts[bestLabel].members = append(parts[bestLabel].members, i)
			} else {
				stillFresh = append(stillFresh, i)
			}
		}
		fresh = stillFresh
	}

	// Phase 2: re-split partitions violating ε_p (Equation 7/8).
	for _, l := range sortedLabels(parts) {
		pt := parts[l]
		pt.centroid = centroidOf(feats, pt.members)
		if maxRadius(feats, pt.members, pt.centroid) <= p.opts.EpsP {
			continue
		}
		p.stats.Resplits++
		sub := p.boundedSplit(feats, pt.members)
		delete(parts, l)
		for _, members := range sub {
			nl := p.next
			p.next++
			p.stats.NewParts++
			parts[nl] = &part{centroid: centroidOf(feats, members), members: members}
		}
	}

	// Phase 3: fresh pool gets its own bounded partitioning.
	if len(fresh) > 0 {
		for _, members := range p.boundedSplit(feats, fresh) {
			nl := p.next
			p.next++
			p.stats.NewParts++
			parts[nl] = &part{centroid: centroidOf(feats, members), members: members}
		}
	}

	// Phase 4: merge close partitions (centroid distance ≤ ε_p), each
	// partition participating in at most one merge per step (§3.2.2).
	// The grid reduces the O(q²) pair scan to a 3×3-neighborhood probe
	// per partition; a merged partner never needs re-probing (smaller
	// labels are done, larger ones are filtered by the merged set), so
	// the grid built here stays valid for the whole phase.
	labels := sortedLabels(parts)
	merged := map[int]bool{}
	mergeGrid := newCentroidGrid(p.opts.EpsP, feats)
	if mergeGrid != nil {
		for _, l := range labels {
			mergeGrid.add(l, parts[l].centroid)
		}
	}
	for ai := 0; ai < len(labels); ai++ {
		a := labels[ai]
		if merged[a] || parts[a] == nil {
			continue
		}
		candidates := labels[ai+1:]
		if mergeGrid != nil {
			candidates = mergeGrid.neighbors(parts[a].centroid)
		}
		for _, b := range candidates {
			if b <= a || merged[b] || parts[b] == nil {
				continue
			}
			if distVec(parts[a].centroid, parts[b].centroid) <= p.opts.EpsP {
				// Merge only when the union still satisfies the ε_p radius
				// bound, so Equations 7/8 stay invariants of every step.
				union := append(append([]int(nil), parts[a].members...), parts[b].members...)
				uc := centroidOf(feats, union)
				if maxRadius(feats, union, uc) > p.opts.EpsP {
					continue
				}
				parts[a].members = union
				parts[a].centroid = uc
				delete(parts, b)
				merged[a], merged[b] = true, true
				p.stats.Merges++
				break
			}
		}
	}

	// Safety valve: when MaxPartitions is set, merge globally-nearest
	// partition pairs until the cap holds. This can violate the ε_p bound
	// (deliberately — it trades partition purity for bounded coefficient
	// storage when feature noise exceeds ε_p). 2-D features find the
	// nearest pair with an expanding-ring grid search instead of the
	// O(q²) scan (O(q³) across a shrink cascade).
	if p.opts.MaxPartitions > 0 {
		for len(parts) > p.opts.MaxPartitions {
			labels := sortedLabels(parts)
			la, lb := p.nearestPair(labels, parts, feats)
			a, b := parts[la], parts[lb]
			a.members = append(a.members, b.members...)
			a.centroid = centroidOf(feats, a.members)
			delete(parts, lb)
			p.stats.Merges++
		}
	}

	// Build the result and stamp the new assignments (stale entries of
	// departed trajectories age out by epoch — no map rebuild).
	labels = sortedLabels(parts)
	res := &Result{Q: len(labels)}
	for _, l := range labels {
		pt := parts[l]
		sort.Ints(pt.members)
		res.Groups = append(res.Groups, pt.members)
		res.Labels = append(res.Labels, l)
		for _, i := range pt.members {
			p.assign[ids[i]] = assignEntry{label: l, epoch: p.epoch}
		}
	}
	// Periodic sweep keeps memory bounded on streams with trajectory
	// churn: entries not stamped this step can never be carried forward
	// again, so they are garbage once the step ends.
	if p.epoch%64 == 0 {
		for id, e := range p.assign {
			if e.epoch != p.epoch {
				delete(p.assign, id)
			}
		}
	}
	return res
}

// nearestPair returns the pair of partition labels with minimal centroid
// distance, lexicographically first among exact ties — the same winner
// the sequential i<j scan with strict-< updates picks. For 2-D features
// an expanding-ring search over a centroid grid prunes the scan.
func (p *Partitioner) nearestPair(labels []int, parts map[int]*part, feats [][]float64) (int, int) {
	if len(labels) == 2 {
		return labels[0], labels[1]
	}
	grid := newCentroidGrid(p.opts.EpsP, feats)
	if grid == nil {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(labels); i++ {
			for j := i + 1; j < len(labels); j++ {
				if d := distVec(parts[labels[i]].centroid, parts[labels[j]].centroid); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		return labels[bi], labels[bj]
	}
	for _, l := range labels {
		grid.add(l, parts[l].centroid)
	}
	bi, bj, best := -1, -1, math.Inf(1)
	for _, a := range labels {
		partner, d := grid.nearestOther(a, parts[a].centroid, parts)
		if partner < 0 {
			continue
		}
		lo, hi := a, partner
		if hi < lo {
			lo, hi = hi, lo
		}
		if d < best || (d == best && (lo < bi || (lo == bi && hi < bj))) {
			bi, bj, best = lo, hi, d
		}
	}
	return bi, bj
}

// boundedSplit partitions the given members with the bounded clustering
// loop and returns member groups (indices into the step's input).
func (p *Partitioner) boundedSplit(feats [][]float64, members []int) [][]int {
	data := make([][]float64, len(members))
	for i, m := range members {
		data[i] = feats[m]
	}
	res, _ := cluster.BoundedPartition(data, cluster.BoundedOptions{
		Epsilon: p.opts.EpsP,
		Step:    p.opts.Step,
		MaxIter: p.opts.MaxIter,
		MaxK:    p.opts.MaxPartitions,
		Seed:    p.opts.Seed,
	})
	groups := make([][]int, res.K())
	for i, c := range res.Assign {
		groups[c] = append(groups[c], members[i])
	}
	// Clusters can come back empty only if K() exceeds assignments; filter.
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// centroidGrid is a uniform-grid hash over partition centroids with cell
// size ε_p — the quant.Codebook idiom applied to the partitioner's three
// centroid scans. Any centroid within ε_p of a query lies in the 3×3
// neighborhood of the query's cell. It only supports 2-D (Spatial)
// features; newCentroidGrid returns nil for other dimensionalities and
// callers fall back to the linear scan.
type centroidGrid struct {
	cell                   float64
	m                      map[uint64][]int
	minX, minY, maxX, maxY int32
	buf                    []int
}

// newCentroidGrid returns an empty grid, or nil when the features are not
// 2-D or ε_p is not positive (the grid would degenerate).
func newCentroidGrid(eps float64, feats [][]float64) *centroidGrid {
	if eps <= 0 || len(feats) == 0 || len(feats[0]) != 2 {
		return nil
	}
	return &centroidGrid{
		cell: eps,
		m:    make(map[uint64][]int),
		minX: math.MaxInt32, minY: math.MaxInt32,
		maxX: math.MinInt32, maxY: math.MinInt32,
	}
}

func (g *centroidGrid) cellOf(c []float64) (int32, int32) {
	return int32(math.Floor(c[0] / g.cell)), int32(math.Floor(c[1] / g.cell))
}

func gridKey(x, y int32) uint64 { return uint64(uint32(x))<<32 | uint64(uint32(y)) }

func (g *centroidGrid) add(label int, centroid []float64) {
	x, y := g.cellOf(centroid)
	k := gridKey(x, y)
	g.m[k] = append(g.m[k], label)
	if x < g.minX {
		g.minX = x
	}
	if y < g.minY {
		g.minY = y
	}
	if x > g.maxX {
		g.maxX = x
	}
	if y > g.maxY {
		g.maxY = y
	}
}

// neighbors returns the labels in the 3×3 cell neighborhood of the query,
// in ascending label order (matching the sorted scan order of the linear
// path, so `<=`-style tie-breaking is preserved). The returned slice is
// the grid's scratch buffer, valid until the next call.
func (g *centroidGrid) neighbors(c []float64) []int {
	cx, cy := g.cellOf(c)
	out := g.buf[:0]
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			out = append(out, g.m[gridKey(cx+dx, cy+dy)]...)
		}
	}
	sort.Ints(out)
	g.buf = out
	return out
}

// nearestOther returns the label and distance of the nearest centroid to
// c excluding self, searching grid rings outward until no closer centroid
// can exist. Exact ties resolve to the smaller label. Returns (-1, 0)
// when the grid holds no other centroid.
func (g *centroidGrid) nearestOther(self int, c []float64, parts map[int]*part) (int, float64) {
	cx, cy := g.cellOf(c)
	bestL, bestD := -1, math.Inf(1)
	scan := func(x, y int32) {
		for _, l := range g.m[gridKey(x, y)] {
			if l == self {
				continue
			}
			if d := distVec(c, parts[l].centroid); d < bestD || (d == bestD && l < bestL) {
				bestL, bestD = l, d
			}
		}
	}
	// Widest ring that can still hold a cell of the grid's extent.
	maxRing := int32(0)
	for _, v := range []int32{cx - g.minX, g.maxX - cx, cy - g.minY, g.maxY - cy} {
		if v > maxRing {
			maxRing = v
		}
	}
	for r := int32(0); r <= maxRing; r++ {
		if r == 0 {
			scan(cx, cy)
		} else {
			for x := cx - r; x <= cx+r; x++ {
				scan(x, cy-r)
				scan(x, cy+r)
			}
			for y := cy - r + 1; y <= cy+r-1; y++ {
				scan(cx-r, y)
				scan(cx+r, y)
			}
		}
		// A centroid in ring r+1 or beyond is at Euclidean distance
		// ≥ r·cell from any point of the query's cell.
		if bestL >= 0 && bestD <= float64(r)*g.cell {
			break
		}
	}
	return bestL, bestD
}

func sortedLabels(parts map[int]*part) []int {
	labels := make([]int, 0, len(parts))
	for l := range parts {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	return labels
}

func distVec(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
