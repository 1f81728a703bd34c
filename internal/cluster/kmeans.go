// Package cluster provides the clustering substrate for PPQ-trajectory:
// Lloyd's k-means with k-means++ seeding [Lloyd 1982], and the
// bounded-radius partitioning loop of §3.2.1 that increases the number of
// partitions round by round until every partition satisfies the ε_p
// deviation constraint of Equations 7 and 8 (complexity O(q·m·N·l),
// Lemma 1).
//
// Vectors are generic []float64 so the same code clusters 2-D trajectory
// points (spatial partitioning, Eq. 7) and k-dimensional autocorrelation
// features (Eq. 8).
package cluster

import (
	"math"
	"math/rand"
	"sync"
)

// Result describes a clustering: one centroid per cluster and, for every
// input vector, the index of its assigned cluster.
type Result struct {
	Centroids [][]float64
	Assign    []int
}

// K returns the number of clusters in the result.
func (r *Result) K() int { return len(r.Centroids) }

// Sizes returns the number of members per cluster.
func (r *Result) Sizes() []int {
	sizes := make([]int, len(r.Centroids))
	for _, a := range r.Assign {
		sizes[a]++
	}
	return sizes
}

// dist2 is split so the dominant 2-D case (spatial features) inlines; the
// arithmetic matches the generic loop exactly (d₀² then +d₁²), so the 2-D
// path changes nothing but speed.
func dist2(a, b []float64) float64 {
	if len(a) == 2 && len(b) == 2 {
		dx := a[0] - b[0]
		dy := a[1] - b[1]
		return dx*dx + dy*dy
	}
	return dist2ND(a, b)
}

func dist2ND(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// kmScratch pools the per-call working buffers of KMeans (everything that
// does not escape into the Result). Only buffers live here — pooling
// cannot affect results.
type kmScratch struct {
	counts []int
	sumBuf []float64
	sums   [][]float64
	cx, cy []float64
	d2     []float64
}

var kmPool = sync.Pool{New: func() any { return new(kmScratch) }}

func (s *kmScratch) floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	b := (*buf)[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// seedPlusPlus picks k initial centroids with the k-means++ rule: the first
// uniformly, each next with probability proportional to the squared
// distance from the nearest already-chosen centroid.
func seedPlusPlus(data [][]float64, k int, rng *rand.Rand, sc *kmScratch) [][]float64 {
	n := len(data)
	centroids := make([][]float64, 0, k)
	first := append([]float64(nil), data[rng.Intn(n)]...)
	centroids = append(centroids, first)
	d2 := sc.floats(&sc.d2, n)
	for i, v := range data {
		d2[i] = dist2(v, first)
	}
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next []float64
		if total <= 0 {
			// All remaining points coincide with existing centroids;
			// any point works.
			next = data[rng.Intn(n)]
		} else {
			target := rng.Float64() * total
			idx := n - 1
			var acc float64
			for i, d := range d2 {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
			next = data[idx]
		}
		c := append([]float64(nil), next...)
		centroids = append(centroids, c)
		for i, v := range data {
			if d := dist2(v, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// KMeans clusters data into k clusters with at most maxIter Lloyd
// iterations. It is deterministic for a given seed. k is clamped to
// [1, len(data)]; empty data yields an empty Result.
func KMeans(data [][]float64, k, maxIter int, seed int64) *Result {
	n := len(data)
	if n == 0 {
		return &Result{}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if maxIter < 1 {
		maxIter = 1
	}
	dim := len(data[0])
	if k == 1 {
		// One cluster converges to the mean regardless of seeding — skip
		// the (comparatively expensive) rng warm-up and Lloyd loop. Every
		// bounded-partition sweep starts here, so this round is pure
		// overhead otherwise.
		centroid := make([]float64, dim)
		for _, v := range data {
			for j, x := range v {
				centroid[j] += x
			}
		}
		inv := 1 / float64(n)
		for j := range centroid {
			centroid[j] *= inv
		}
		return &Result{Centroids: [][]float64{centroid}, Assign: make([]int, n)}
	}
	var centroids [][]float64
	func() {
		sc := kmPool.Get().(*kmScratch)
		defer kmPool.Put(sc)
		rng := rand.New(rand.NewSource(seed))
		centroids = seedPlusPlus(data, k, rng, sc)
	}()
	return kmeansFrom(data, centroids, maxIter)
}

// kmeansFrom runs Lloyd's iterations from the given initial centroids
// (which it owns and mutates). It is the deterministic core shared by the
// seeded KMeans and the bounded-partition sweep.
func kmeansFrom(data [][]float64, centroids [][]float64, maxIter int) *Result {
	n := len(data)
	if n == 0 {
		return &Result{}
	}
	if maxIter < 1 {
		maxIter = 1
	}
	k := len(centroids)
	dim := len(data[0])
	if k == 1 {
		// One cluster converges to the mean regardless of the seed point.
		centroid := centroids[0]
		for j := range centroid {
			centroid[j] = 0
		}
		for _, v := range data {
			for j, x := range v {
				centroid[j] += x
			}
		}
		inv := 1 / float64(n)
		for j := range centroid {
			centroid[j] *= inv
		}
		return &Result{Centroids: centroids, Assign: make([]int, n)}
	}
	sc := kmPool.Get().(*kmScratch)
	defer kmPool.Put(sc)
	assign := make([]int, n)
	sumBuf := sc.floats(&sc.sumBuf, k*dim)
	if cap(sc.sums) < k {
		sc.sums = make([][]float64, k)
	}
	sums := sc.sums[:k]
	for i := range sums {
		sums[i] = sumBuf[i*dim : (i+1)*dim]
	}
	if cap(sc.counts) < k {
		sc.counts = make([]int, k)
	}
	counts := sc.counts[:k]
	// 2-D data (spatial features, the dominant workload) assigns against
	// flat centroid-coordinate arrays: same arithmetic and tie order as
	// the generic scan, minus the per-centroid slice indirection.
	var cx, cy []float64
	if dim == 2 {
		cx = sc.floats(&sc.cx, k)
		cy = sc.floats(&sc.cy, k)
	}
	assignAll := func() bool {
		if dim == 2 {
			for c, cent := range centroids {
				cx[c], cy[c] = cent[0], cent[1]
			}
		}
		changed := false
		for i, v := range data {
			var best int
			if dim == 2 {
				best = nearest2D(v[0], v[1], cx, cy)
			} else {
				best = nearest(v, centroids)
			}
			if assign[i] != best {
				changed = true
				assign[i] = best
			}
		}
		return changed
	}
	converged := false
	for iter := 0; iter < maxIter; iter++ {
		changed := assignAll()
		if iter == 0 {
			changed = true
		}
		if !changed {
			converged = true
			break
		}
		for c := range sums {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, v := range data {
			c := assign[i]
			counts[c]++
			for j, x := range v {
				sums[c][j] += x
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to keep k effective clusters.
				far, farD := 0, -1.0
				for i, v := range data {
					if d := dist2(v, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], data[far])
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] * inv
			}
		}
	}
	// Final assignment against the final centroids. A convergence break
	// means the last assignment already matches the current centroids
	// (they were not updated afterwards), so recomputing it would be a
	// no-op; only a maxIter exit needs the extra pass.
	if !converged {
		assignAll()
	}
	return &Result{Centroids: centroids, Assign: assign}
}

// nearest returns the index of the centroid nearest to v: first strict
// minimum.
func nearest(v []float64, centroids [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := dist2(v, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// nearest2D returns the index of the nearest (cx, cy) centroid to
// (px, py): first strict minimum, matching nearest.
func nearest2D(px, py float64, cx, cy []float64) int {
	best, bestD := 0, math.Inf(1)
	for c := range cx {
		dx := px - cx[c]
		dy := py - cy[c]
		if d := dx*dx + dy*dy; d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// MaxRadius returns, per cluster, the maximum distance from a member to
// its centroid — the left-hand side of Equations 7/8.
func (r *Result) MaxRadius(data [][]float64) []float64 {
	radii := make([]float64, len(r.Centroids))
	for i, v := range data {
		c := r.Assign[i]
		if d := math.Sqrt(dist2(v, r.Centroids[c])); d > radii[c] {
			radii[c] = d
		}
	}
	return radii
}

// BoundedOptions configures BoundedPartition.
type BoundedOptions struct {
	// Epsilon is ε_p: the maximum allowed distance from any member to its
	// partition centroid (Equations 7/8).
	Epsilon float64
	// Step is the per-round increment "a" of the partition count in
	// Lemma 1's proof. Defaults to 1.
	Step int
	// MaxIter bounds Lloyd iterations per round (the "l" in Lemma 1).
	// Defaults to 25.
	MaxIter int
	// MaxK caps the number of partitions as a safety valve for adversarial
	// inputs; 0 means no cap beyond len(data).
	MaxK int
	// Seed makes the clustering deterministic.
	Seed int64
}

func (o *BoundedOptions) defaults() {
	if o.Step < 1 {
		o.Step = 1
	}
	if o.MaxIter < 1 {
		o.MaxIter = 25
	}
}

// BoundedStats reports the work BoundedPartition did, feeding the Lemma 1
// complexity accounting and Figure 7/8 experiments.
type BoundedStats struct {
	Rounds     int // m: rounds of increasing q
	FinalK     int // q: resulting partition count
	Iterations int // total Lloyd iterations across rounds (≈ m·l)
}

// BoundedPartition partitions data into the smallest number of clusters
// (tried in increments of opts.Step) such that every cluster satisfies the
// ε_p radius bound. This is the §3.2.1 partitioning loop: run k-means with
// growing q until Equations 7/8 hold for all partitions.
func BoundedPartition(data [][]float64, opts BoundedOptions) (*Result, BoundedStats) {
	opts.defaults()
	n := len(data)
	var stats BoundedStats
	if n == 0 {
		return &Result{}, stats
	}
	maxK := n
	if opts.MaxK > 0 && opts.MaxK < maxK {
		maxK = opts.MaxK
	}
	// The radius constraint is a k-center objective, so rounds seed with
	// the farthest-first (Gonzalez) prefix rather than k-means++: centers
	// land in every isolated cluster first, which is exactly what the
	// bound needs, and the first round usually passes. The same greedy
	// sequence yields a pigeonhole lower bound on the feasible k — points
	// pairwise more than 2ε apart cannot share a cluster of radius ≤ ε —
	// so the sweep can skip all rounds below it: they were guaranteed to
	// be rejected. The whole loop is deterministic with no rng.
	g := newGonzalez(data)
	k := 1
	if m := g.minFeasibleK(opts.Epsilon, maxK); m > 1 {
		for k < m {
			k += opts.Step
		}
		if k > maxK {
			k = maxK
		}
	}
	eps2 := opts.Epsilon * opts.Epsilon
	for {
		stats.Rounds++
		res := kmeansFrom(data, g.seeds(k), opts.MaxIter)
		stats.Iterations += opts.MaxIter
		// Radius check with early exit on the first violating member
		// (squared distances; no per-round radii allocation).
		ok := true
		for i, v := range data {
			if dist2(v, res.Centroids[res.Assign[i]]) > eps2 {
				ok = false
				break
			}
		}
		if ok || k >= maxK {
			stats.FinalK = res.K()
			return res, stats
		}
		k += opts.Step
		if k > maxK {
			k = maxK
		}
	}
}

// gonzalez incrementally computes the farthest-first traversal of data:
// picks[0] = data[0], each next pick the point farthest from all previous
// picks. Selection distances are non-increasing, which gives both the
// k-center seeds (the first k picks) and the pairwise-separation lower
// bound. O(n) per pick.
type gonzalez struct {
	data  [][]float64
	mind  []float64 // squared distance to the nearest pick so far
	picks []int
	dists []float64 // squared selection distance of each pick (pick 0: +Inf)
}

func newGonzalez(data [][]float64) *gonzalez {
	g := &gonzalez{
		data:  data,
		mind:  make([]float64, len(data)),
		picks: []int{0},
		dists: []float64{math.Inf(1)},
	}
	for i, v := range data {
		g.mind[i] = dist2(v, data[0])
	}
	return g
}

// extend grows the traversal to k picks (clamped to len(data)).
func (g *gonzalez) extend(k int) {
	for len(g.picks) < k && len(g.picks) < len(g.data) {
		far, farD := 0, -1.0
		for i, d := range g.mind {
			if d > farD {
				far, farD = i, d
			}
		}
		g.picks = append(g.picks, far)
		g.dists = append(g.dists, farD)
		fv := g.data[far]
		for i, v := range g.data {
			if d := dist2(v, fv); d < g.mind[i] {
				g.mind[i] = d
			}
		}
	}
}

// seeds returns k fresh centroid vectors at the first k picks (Lloyd
// mutates them, so each round gets copies).
func (g *gonzalez) seeds(k int) [][]float64 {
	g.extend(k)
	if k > len(g.picks) {
		k = len(g.picks)
	}
	out := make([][]float64, k)
	for i := 0; i < k; i++ {
		out[i] = append([]float64(nil), g.data[g.picks[i]]...)
	}
	return out
}

// minFeasibleK lower-bounds the cluster count needed to satisfy the ε
// radius bound: the longest farthest-first prefix whose picks are
// pairwise more than 2ε apart (any k below it must put two of them in
// one cluster, forcing a radius above ε), capped at cap.
func (g *gonzalez) minFeasibleK(eps float64, cap int) int {
	if len(g.data) < 2 || eps <= 0 || cap < 2 {
		return 1
	}
	thresh := 4 * eps * eps // (2ε)², against squared selection distances
	m := 1
	for m < cap {
		g.extend(m + 1)
		if len(g.picks) <= m || g.dists[m] <= thresh {
			break
		}
		m++
	}
	return m
}
