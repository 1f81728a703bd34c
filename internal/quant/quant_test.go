package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ppqtraj/internal/geo"
)

func randPoints(rng *rand.Rand, n int, scale float64) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Pt(rng.Float64()*scale, rng.Float64()*scale)
	}
	return out
}

// checkBound reports whether every error lies within q's ε of its
// assigned codeword (the Definition 3.2 invariant).
func checkBound(q *Incremental, errs []geo.Point, idxs []int) bool {
	for i, e := range errs {
		if e.Dist(q.Book.Word(idxs[i])) > q.Epsilon+1e-12 {
			return false
		}
	}
	return true
}

// maxError is the largest distance from a point to its codeword.
func maxError(r *FixedResult, points []geo.Point) float64 {
	m := 0.0
	for i, p := range points {
		m = math.Max(m, p.Dist(r.Book.Word(r.Codes[i])))
	}
	return m
}

// meanError is the mean distance from a point to its codeword.
func meanError(r *FixedResult, points []geo.Point) float64 {
	var s float64
	for i, p := range points {
		s += p.Dist(r.Book.Word(r.Codes[i]))
	}
	return s / float64(len(points))
}

func TestCodebookAddNearest(t *testing.T) {
	cb := NewCodebook(1)
	if cb.Len() != 0 {
		t.Fatal("new codebook not empty")
	}
	i0 := cb.Add(geo.Pt(0, 0))
	i1 := cb.Add(geo.Pt(10, 10))
	if i0 != 0 || i1 != 1 {
		t.Fatalf("indexes %d %d", i0, i1)
	}
	idx, d, ok := cb.NearestWithin(geo.Pt(0.1, 0.1))
	if !ok || idx != 0 || d > 0.2 {
		t.Fatalf("NearestWithin = %d %v %v", idx, d, ok)
	}
	if idx, _, ok = cb.NearestWithin(geo.Pt(10.5, 9.6)); !ok || idx != 1 {
		t.Fatalf("NearestWithin = %d %v, want the second codeword", idx, ok)
	}
}

func TestCodebookNearestWithinRadius(t *testing.T) {
	cb := NewCodebook(0.5)
	cb.Add(geo.Pt(0, 0))
	// A codeword within cellSize must be found by the 3×3 probe.
	if _, d, ok := cb.NearestWithin(geo.Pt(0.4, 0.0)); !ok || d > 0.5 {
		t.Fatalf("NearestWithin missed close codeword: ok=%v d=%v", ok, d)
	}
	if _, _, ok := cb.NearestWithin(geo.Pt(5, 5)); ok {
		t.Fatal("NearestWithin found codeword far outside neighborhood")
	}
}

func TestCodebookBytes(t *testing.T) {
	cb := NewCodebook(1)
	cb.Add(geo.Pt(0, 0))
	cb.Add(geo.Pt(1, 1))
	if cb.Bytes() != 32 {
		t.Fatalf("Bytes = %d, want 32", cb.Bytes())
	}
}

func TestIncrementalBoundInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewIncremental(0.05)
	for batch := 0; batch < 10; batch++ {
		errs := randPoints(rng, 500, 1)
		idxs := q.Quantize(errs)
		if !checkBound(q, errs, idxs) {
			t.Fatalf("batch %d violates the ε bound", batch)
		}
	}
	if q.Assigned != 5000 {
		t.Fatalf("Assigned = %d", q.Assigned)
	}
	if q.Grown == 0 || q.Grown > 5000 {
		t.Fatalf("implausible growth %d", q.Grown)
	}
}

func TestIncrementalReusesCodewords(t *testing.T) {
	q := NewIncremental(0.1)
	a := q.QuantizeOne(geo.Pt(0, 0))
	b := q.QuantizeOne(geo.Pt(0.05, 0)) // within ε of the first codeword
	if a != b {
		t.Fatalf("nearby error should reuse codeword: %d vs %d", a, b)
	}
	c := q.QuantizeOne(geo.Pt(1, 1)) // far: must grow
	if c == a {
		t.Fatal("far error must get a new codeword")
	}
	if q.Book.Len() != 2 {
		t.Fatalf("codebook size %d, want 2", q.Book.Len())
	}
}

func TestIncrementalCodebookSizeScalesWithEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 3000, 1)
	small := NewIncremental(0.01)
	small.Quantize(pts)
	large := NewIncremental(0.1)
	large.Quantize(pts)
	if large.Book.Len() >= small.Book.Len() {
		t.Fatalf("looser bound must need fewer codewords: %d vs %d",
			large.Book.Len(), small.Book.Len())
	}
}

// Property: quantize-reconstruct error never exceeds ε for random inputs.
func TestIncrementalProperty(t *testing.T) {
	f := func(xs []float64) bool {
		q := NewIncremental(0.25)
		for i := 0; i+1 < len(xs); i += 2 {
			x, y := xs[i], xs[i+1]
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			// Clamp extreme magnitudes to keep the grid hash finite.
			x, y = math.Mod(x, 1e6), math.Mod(y, 1e6)
			p := geo.Pt(x, y)
			idx := q.QuantizeOne(p)
			if p.Dist(q.Book.Word(idx)) > 0.25+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedKMeansBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 400, 10)
	r := FixedKMeans(pts, 32, 20, 4)
	if r.Book.Len() != 32 {
		t.Fatalf("codebook size %d, want 32", r.Book.Len())
	}
	if len(r.Codes) != 400 {
		t.Fatalf("codes %d", len(r.Codes))
	}
	if maxError(r, pts) <= 0 {
		t.Fatal("max error should be positive for scattered data")
	}
	if meanError(r, pts) > maxError(r, pts) {
		t.Fatal("mean must not exceed max")
	}
}

func TestFixedKMeansMoreWordsLessError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 1000, 10)
	coarse := FixedKMeans(pts, 4, 25, 6)
	fine := FixedKMeans(pts, 64, 25, 6)
	if meanError(fine, pts) >= meanError(coarse, pts) {
		t.Fatalf("64 words should beat 4: %v vs %v",
			meanError(fine, pts), meanError(coarse, pts))
	}
}

func TestScalarCoverOptimality(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 10}
	cents := scalarCover(vals, 0.5) // each centroid covers width 1
	// Values 0..3 need 4/1=4 groups... greedy: c=0.5 covers [0,1]; c=2.5
	// covers [2,3]; c=10.5 covers 10 → 3 centroids.
	if len(cents) != 3 {
		t.Fatalf("cover size %d, want 3 (%v)", len(cents), cents)
	}
	for _, v := range vals {
		best := math.Inf(1)
		for _, c := range cents {
			if d := math.Abs(c - v); d < best {
				best = d
			}
		}
		if best > 0.5+1e-12 {
			t.Fatalf("value %v not covered within bound", v)
		}
	}
	if got := scalarCover(nil, 1); got != nil {
		t.Fatal("empty input")
	}
}

func TestProductBoundedRespectsEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 800, 5)
	eps := 0.2
	pq, codes := ProductBounded(pts, eps)
	for i, p := range pts {
		if d := p.Dist(pq.Decode(codes[i])); d > eps+1e-9 {
			t.Fatalf("point %d error %v > ε %v", i, d, eps)
		}
	}
	if pq.NumWords() == 0 || pq.Bytes() != pq.NumWords()*8 {
		t.Fatal("bad size accounting")
	}
}

func TestProductFixedBudgetSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 300, 5)
	pq, codes := ProductFixed(pts, 32, 20, 9)
	if len(pq.XWords) != 16 || len(pq.YWords) != 16 {
		t.Fatalf("budget split %d/%d, want 16/16", len(pq.XWords), len(pq.YWords))
	}
	if pq.NumWords() != 32 {
		t.Fatalf("NumWords = %d", pq.NumWords())
	}
	for i, p := range pts {
		rec := pq.Decode(codes[i])
		if !rec.IsFinite() {
			t.Fatal("non-finite reconstruction")
		}
		_ = p
	}
}

func TestProductWorseThanVQOnCorrelatedData(t *testing.T) {
	// On diagonal (correlated) data the axis-independent PQ wastes its
	// budget — this is exactly why the paper's joint quantizer wins.
	rng := rand.New(rand.NewSource(10))
	pts := make([]geo.Point, 500)
	for i := range pts {
		v := rng.Float64() * 10
		pts[i] = geo.Pt(v, v+rng.NormFloat64()*0.01)
	}
	vq := FixedKMeans(pts, 16, 25, 11)
	pq, codes := ProductFixed(pts, 16, 25, 11)
	var pqErr float64
	for i, p := range pts {
		pqErr += p.Dist(pq.Decode(codes[i]))
	}
	pqErr /= float64(len(pts))
	if meanError(vq, pts) >= pqErr {
		t.Fatalf("VQ should beat PQ on correlated data: %v vs %v", meanError(vq, pts), pqErr)
	}
}

func TestResidualFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randPoints(rng, 500, 10)
	rq, codes := ResidualFixed(pts, 32, 20, 13)
	if rq.NumWords() != 32 {
		t.Fatalf("NumWords = %d, want 32", rq.NumWords())
	}
	if len(rq.Stages) != 2 {
		t.Fatalf("stages = %d", len(rq.Stages))
	}
	var mean float64
	for i, p := range pts {
		mean += p.Dist(rq.Decode(codes[i]))
	}
	mean /= float64(len(pts))
	// Two-stage RQ must beat single-stage VQ with the same total budget on
	// spread data... at minimum it must reconstruct sanely.
	if mean > 3 {
		t.Fatalf("RQ mean error %v implausibly large", mean)
	}
}

func TestResidualBoundedRespectsEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randPoints(rng, 600, 8)
	eps := 0.15
	rq, codes := ResidualBounded(pts, eps, 3)
	for i, p := range pts {
		if d := p.Dist(rq.Decode(codes[i])); d > eps+1e-9 {
			t.Fatalf("point %d error %v > ε", i, d)
		}
	}
	if len(rq.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(rq.Stages))
	}
}

func TestResidualRefinementImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := randPoints(rng, 500, 10)
	rq, codes := ResidualFixed(pts, 32, 20, 16)
	var oneStage, twoStage float64
	for i, p := range pts {
		oneStage += p.Dist(rq.Stages[0].Word(codes[i][0]))
		twoStage += p.Dist(rq.Decode(codes[i]))
	}
	if twoStage >= oneStage {
		t.Fatalf("refinement stage should reduce error: %v vs %v", twoStage, oneStage)
	}
}

func BenchmarkIncrementalQuantize(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	pts := randPoints(rng, 10000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewIncremental(0.02)
		q.Quantize(pts)
	}
}
