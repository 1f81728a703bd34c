package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// blob generates n points around center with the given spread.
func blob(rng *rand.Rand, n int, cx, cy, spread float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
	}
	return out
}

func TestKMeansEmptyAndTrivial(t *testing.T) {
	if r := KMeans(nil, 3, 10, 1); r.K() != 0 || len(r.Assign) != 0 {
		t.Fatal("empty input should give empty result")
	}
	data := [][]float64{{1, 1}}
	r := KMeans(data, 5, 10, 1) // k clamped to n
	if r.K() != 1 || r.Assign[0] != 0 {
		t.Fatalf("single point: K=%d assign=%v", r.K(), r.Assign)
	}
	if r.Centroids[0][0] != 1 || r.Centroids[0][1] != 1 {
		t.Fatalf("centroid = %v", r.Centroids[0])
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := append(blob(rng, 100, 0, 0, 0.1), blob(rng, 100, 10, 10, 0.1)...)
	r := KMeans(data, 2, 50, 7)
	if r.K() != 2 {
		t.Fatalf("K = %d", r.K())
	}
	// All members of each blob should share a cluster.
	first := r.Assign[0]
	for i := 1; i < 100; i++ {
		if r.Assign[i] != first {
			t.Fatalf("blob 1 split at %d", i)
		}
	}
	second := r.Assign[100]
	if second == first {
		t.Fatal("blobs merged")
	}
	for i := 101; i < 200; i++ {
		if r.Assign[i] != second {
			t.Fatalf("blob 2 split at %d", i)
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := blob(rng, 200, 0, 0, 5)
	a := KMeans(data, 4, 30, 99)
	b := KMeans(data, 4, 30, 99)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give identical assignments")
		}
	}
}

func TestKMeansCentroidIsMean(t *testing.T) {
	// With k=1 the centroid must be the arithmetic mean.
	data := [][]float64{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	r := KMeans(data, 1, 10, 3)
	if math.Abs(r.Centroids[0][0]-1) > 1e-12 || math.Abs(r.Centroids[0][1]-1) > 1e-12 {
		t.Fatalf("centroid = %v, want (1,1)", r.Centroids[0])
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	// More clusters than distinct points: must not loop or divide by zero.
	data := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	r := KMeans(data, 3, 10, 5)
	if len(r.Assign) != 4 {
		t.Fatal("wrong assignment length")
	}
	for _, c := range r.Centroids {
		if math.IsNaN(c[0]) || math.IsNaN(c[1]) {
			t.Fatal("NaN centroid")
		}
	}
}

func TestKMeansHighDim(t *testing.T) {
	// The autocorrelation partitioner clusters k-dim AR coefficient
	// vectors; verify non-2-D data works.
	rng := rand.New(rand.NewSource(6))
	var data [][]float64
	for i := 0; i < 50; i++ {
		data = append(data, []float64{0.8 + rng.Float64()*0.01, 0.1, 0.0, 0.0})
	}
	for i := 0; i < 50; i++ {
		data = append(data, []float64{-0.5 + rng.Float64()*0.01, 0.3, 0.1, 0.0})
	}
	r := KMeans(data, 2, 20, 8)
	if r.Assign[0] == r.Assign[50] {
		t.Fatal("distinct AR regimes should separate")
	}
}

// maxRadius returns, per cluster, the largest distance from a member to
// its centroid: the left-hand side of Equations 7/8.
func maxRadius(r *Result, data [][]float64) []float64 {
	radii := make([]float64, len(r.Centroids))
	for i, v := range data {
		c := r.Assign[i]
		radii[c] = math.Max(radii[c], math.Sqrt(dist2(v, r.Centroids[c])))
	}
	return radii
}

func TestSizes(t *testing.T) {
	r := &Result{Centroids: [][]float64{{0}, {1}}, Assign: []int{0, 1, 1, 1}}
	s := r.Sizes()
	if s[0] != 1 || s[1] != 3 {
		t.Fatalf("Sizes = %v", s)
	}
}

func TestBoundedPartitionSatisfiesEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := append(blob(rng, 150, 0, 0, 0.3), blob(rng, 150, 5, 5, 0.3)...)
	data = append(data, blob(rng, 150, -5, 5, 0.3)...)
	eps := 1.5
	res, stats := BoundedPartition(data, BoundedOptions{Epsilon: eps, Seed: 11})
	for c, rad := range maxRadius(res, data) {
		if rad > eps {
			t.Fatalf("cluster %d radius %v exceeds ε_p %v", c, rad, eps)
		}
	}
	if stats.FinalK < 3 {
		t.Fatalf("three well-separated blobs need ≥3 partitions, got %d", stats.FinalK)
	}
	if stats.Rounds < 1 || stats.Iterations < stats.Rounds {
		t.Fatalf("implausible stats %+v", stats)
	}
}

func TestBoundedPartitionSingleClusterWhenLooseEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := blob(rng, 100, 0, 0, 0.1)
	res, stats := BoundedPartition(data, BoundedOptions{Epsilon: 100, Seed: 13})
	if res.K() != 1 || stats.Rounds != 1 {
		t.Fatalf("loose ε_p should partition in one round into one cluster, got K=%d rounds=%d", res.K(), stats.Rounds)
	}
}

func TestBoundedPartitionMaxKCap(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Widely scattered points with a tiny epsilon would need n clusters;
	// the cap must stop growth.
	data := blob(rng, 200, 0, 0, 50)
	res, _ := BoundedPartition(data, BoundedOptions{Epsilon: 1e-6, MaxK: 10, Seed: 15})
	if res.K() > 10 {
		t.Fatalf("MaxK violated: K = %d", res.K())
	}
}

func TestBoundedPartitionStepGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var data [][]float64
	for c := 0; c < 6; c++ {
		data = append(data, blob(rng, 40, float64(c)*10, 0, 0.2)...)
	}
	res, stats := BoundedPartition(data, BoundedOptions{Epsilon: 2, Step: 2, Seed: 17})
	if res.K() < 6 {
		t.Fatalf("six blobs need ≥6 partitions, got %d", res.K())
	}
	// With Step=2 the sweep only ever tries q ∈ {1, 3, 5, …}; the
	// pigeonhole lower bound may skip guaranteed-failing rounds but must
	// stay on that grid, and at least one k-means round must have run.
	if res.K()%2 != 1 {
		t.Fatalf("step-2 sweep must land on odd q, got %d", res.K())
	}
	if stats.Rounds < 1 {
		t.Fatalf("expected ≥1 round, got %d", stats.Rounds)
	}
}

func TestBoundedPartitionEmpty(t *testing.T) {
	res, stats := BoundedPartition(nil, BoundedOptions{Epsilon: 1})
	if res.K() != 0 || stats.FinalK != 0 {
		t.Fatal("empty input should yield empty result")
	}
}

// TestBoundedPartitionProperty: for random data and random ε_p, the bound
// always holds on every resulting partition (the core §3.2.1 invariant).
func TestBoundedPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 25; iter++ {
		n := 20 + rng.Intn(200)
		data := make([][]float64, n)
		for i := range data {
			data[i] = []float64{rng.Float64() * 20, rng.Float64() * 20}
		}
		eps := 0.5 + rng.Float64()*5
		res, _ := BoundedPartition(data, BoundedOptions{Epsilon: eps, Seed: int64(iter)})
		for c, rad := range maxRadius(res, data) {
			if rad > eps+1e-9 {
				t.Fatalf("iter %d: cluster %d radius %v > ε %v", iter, c, rad, eps)
			}
		}
	}
}

func BenchmarkKMeans2D(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	data := blob(rng, 5000, 0, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(data, 16, 20, 1)
	}
}
