// Package quant implements the vector quantizers of the paper: the
// incremental error-bounded quantizer at the heart of E-PQ/PPQ
// (Equation 3: the minimal codebook C such that every error is within ε₁
// of its codeword), fixed-budget k-means quantizers for the equal-codeword
// comparisons of Tables 2–4, and the Product Quantization [19] and
// Residual Quantization [8] baselines.
package quant

import (
	"math"

	"ppqtraj/internal/cluster"
	"ppqtraj/internal/geo"
)

// Codebook is an ordered set of 2-D codewords with a uniform-grid hash for
// fast nearest-codeword lookups. The grid cell size equals the error bound
// ε so that any codeword within ε of a query lies in the 3×3 cell
// neighborhood of the query's cell. The hash is neighborhood-materialized:
// Add registers a codeword in the lists of all nine cells around it, so a
// lookup probes exactly one map entry instead of nine. The trade is 9×
// index duplication (4 bytes each) against a 9× cheaper hot-path probe —
// codebooks top out in the thousands of words, the probe runs per point.
type Codebook struct {
	Words    []geo.Point
	cellSize float64
	near     map[uint64][]int32
}

// NewCodebook creates an empty codebook whose spatial hash is tuned for
// radius-bound queries of the given cell size (typically ε₁).
func NewCodebook(cellSize float64) *Codebook {
	if cellSize <= 0 {
		cellSize = 1
	}
	return &Codebook{cellSize: cellSize, near: make(map[uint64][]int32)}
}

// Len returns the number of codewords.
func (c *Codebook) Len() int { return len(c.Words) }

// Bytes returns the storage footprint of the codebook: two float64 per
// codeword, as the paper's size accounting counts it (Table 6/Figure 9).
func (c *Codebook) Bytes() int { return len(c.Words) * 16 }

func cellKey(x, y int32) uint64 {
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

func (c *Codebook) cellOf(p geo.Point) (int32, int32) {
	return int32(math.Floor(p.X / c.cellSize)), int32(math.Floor(p.Y / c.cellSize))
}

// Add appends a codeword and returns its index.
func (c *Codebook) Add(p geo.Point) int {
	idx := len(c.Words)
	c.Words = append(c.Words, p)
	cx, cy := c.cellOf(p)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			k := cellKey(cx+dx, cy+dy)
			c.near[k] = append(c.near[k], int32(idx))
		}
	}
	return idx
}

// Word returns the codeword at index i.
func (c *Codebook) Word(i int) geo.Point { return c.Words[i] }

// NearestWithin returns the index and distance of the nearest codeword to
// p restricted to the 3×3 grid neighborhood; found is false when no
// codeword lies there. Codewords within cellSize of p are always found.
func (c *Codebook) NearestWithin(p geo.Point) (idx int, dist float64, found bool) {
	cx, cy := c.cellOf(p)
	cand := c.near[cellKey(cx, cy)]
	if len(cand) == 0 {
		return 0, 0, false
	}
	best, bestD2 := -1, math.Inf(1)
	for _, wi := range cand {
		if d := p.Dist2(c.Words[wi]); d < bestD2 {
			best, bestD2 = int(wi), d
		}
	}
	return best, math.Sqrt(bestD2), true
}

// Incremental is the error-bounded incremental quantizer of Equation 3.
// Quantize assigns each error vector to a codeword within Epsilon, growing
// the codebook over the unsatisfied errors in one of two ways:
//
//   - greedy (default): a single-pass disk cover — each uncovered error
//     becomes a codeword. Fast and online, at the cost of a somewhat
//     larger codebook.
//   - clustering (ClusterUnsatisfied): the paper's vector-quantizer path —
//     the batch of unsatisfied errors is clustered with the bounded-radius
//     k-means loop (Lemma 1) and the centroids join the codebook. Smaller
//     codebooks (closer to Equation 3's minimal-|C| objective), and the
//     running time scales with the error range — which is exactly the
//     build-time asymmetry Table 5 measures (narrow prediction errors
//     converge in few rounds; wide raw-position ranges need many).
type Incremental struct {
	Epsilon float64
	Book    *Codebook
	// ClusterUnsatisfied selects the clustering growth path for batch
	// Quantize calls.
	ClusterUnsatisfied bool
	// Stats
	Grown      int // codewords added because of bound violations
	Assigned   int // total vectors quantized
	Iterations int // clustering/probe work count (the "work" measure)
}

// NewIncremental creates an incremental quantizer with bound ε (greedy
// growth).
func NewIncremental(eps float64) *Incremental {
	return &Incremental{Epsilon: eps, Book: NewCodebook(eps)}
}

// NewIncrementalClustered creates an incremental quantizer with bound ε
// that grows by bounded clustering (the paper's quantization path).
func NewIncrementalClustered(eps float64) *Incremental {
	return &Incremental{Epsilon: eps, Book: NewCodebook(eps), ClusterUnsatisfied: true}
}

// QuantizeOne assigns a single error vector, growing the codebook when no
// existing codeword is within Epsilon. It returns the codeword index.
func (q *Incremental) QuantizeOne(e geo.Point) int {
	q.Assigned++
	q.Iterations++
	if idx, d, ok := q.Book.NearestWithin(e); ok && d <= q.Epsilon {
		return idx
	}
	q.Grown++
	return q.Book.Add(e)
}

// Quantize assigns a batch of error vectors (one timestamp's worth in
// Algorithm 1 line 6) and returns their codeword indexes.
func (q *Incremental) Quantize(errs []geo.Point) []int {
	return q.QuantizeInto(make([]int, len(errs)), errs)
}

// QuantizeInto is Quantize writing into a caller-owned slice (len(out)
// must equal len(errs)) so steady-state builds don't allocate per batch.
// It returns out.
func (q *Incremental) QuantizeInto(out []int, errs []geo.Point) []int {
	if !q.ClusterUnsatisfied {
		for i, e := range errs {
			out[i] = q.QuantizeOne(e)
		}
		return out
	}
	var unsat []int
	for i, e := range errs {
		q.Assigned++
		q.Iterations++
		if idx, d, ok := q.Book.NearestWithin(e); ok && d <= q.Epsilon {
			out[i] = idx
		} else {
			out[i] = -1
			unsat = append(unsat, i)
		}
	}
	if len(unsat) == 0 {
		return out
	}
	// Cluster the unsatisfied batch with the bounded-radius loop and add
	// the centroids as new codewords. Step scales with the batch so the
	// Lemma 1 loop does not degenerate to one-at-a-time growth on wide
	// ranges.
	data := make([][]float64, len(unsat))
	for i, idx := range unsat {
		data[i] = []float64{errs[idx].X, errs[idx].Y}
	}
	step := len(unsat) / 64
	if step < 1 {
		step = 1
	}
	res, stats := cluster.BoundedPartition(data, cluster.BoundedOptions{
		Epsilon: q.Epsilon,
		Step:    step,
		MaxIter: 15,
		Seed:    int64(q.Grown),
	})
	q.Iterations += stats.Iterations * len(unsat)
	base := make([]int, res.K())
	for c, cent := range res.Centroids {
		base[c] = q.Book.Add(geo.Point{X: cent[0], Y: cent[1]})
		q.Grown++
	}
	for i, idx := range unsat {
		out[idx] = base[res.Assign[i]]
		// The centroid is within ε of every member by the bounded loop;
		// guard against numerically marginal cases by falling back to the
		// member itself.
		if errs[idx].Dist(q.Book.Word(out[idx])) > q.Epsilon {
			q.Grown++
			out[idx] = q.Book.Add(errs[idx])
		}
	}
	return out
}

// FixedResult is a fixed-budget quantization of one batch of vectors.
type FixedResult struct {
	Book  *Codebook
	Codes []int
}

// FixedKMeans quantizes points into exactly v codewords with k-means —
// the equal-codeword-budget mode used in Tables 2–4 ("we learn C
// independently for every timestamp guaranteeing the same number of
// codewords is given ... across all methods").
func FixedKMeans(points []geo.Point, v, maxIter int, seed int64) *FixedResult {
	data := make([][]float64, len(points))
	for i, p := range points {
		data[i] = []float64{p.X, p.Y}
	}
	res := cluster.KMeans(data, v, maxIter, seed)
	book := NewCodebook(1)
	for _, c := range res.Centroids {
		book.Add(geo.Point{X: c[0], Y: c[1]})
	}
	return &FixedResult{Book: book, Codes: res.Assign}
}
