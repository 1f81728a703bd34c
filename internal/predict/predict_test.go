package predict

import (
	"math"
	"math/rand"
	"testing"

	"ppqtraj/internal/geo"
)

// fit runs one least-squares fit with a fresh Fitter.
func fit(k int, histories [][]geo.Point, targets []geo.Point) Coefficients {
	var f Fitter
	return f.Fit(k, histories, targets)
}

// residualMAE is the mean Euclidean prediction error of c over the
// histories and their targets.
func residualMAE(c Coefficients, histories [][]geo.Point, targets []geo.Point) float64 {
	var s float64
	for i, h := range histories {
		s += targets[i].Dist(Predict(c, h))
	}
	return s / float64(len(histories))
}

// autocorrFeature computes the feature of a whole window, its last point
// standing as the current one.
func autocorrFeature(window []geo.Point, k int) []float64 {
	var s ARScratch
	dst := make([]float64, k)
	if len(window) == 0 {
		return s.FeatureInto(dst, nil, geo.Point{}, k)
	}
	return s.FeatureInto(dst, window[:len(window)-1], window[len(window)-1], k)
}

func TestRandomWalkPredictsPrevious(t *testing.T) {
	c := RandomWalk(3)
	h := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1), geo.Pt(2, 3)}
	if got := Predict(c, h); got != geo.Pt(2, 3) {
		t.Fatalf("Predict = %v, want previous point", got)
	}
}

func TestPredictEmptyHistory(t *testing.T) {
	c := RandomWalk(3)
	if got := Predict(c, nil); got != (geo.Point{}) {
		t.Fatalf("empty history should predict origin, got %v", got)
	}
}

func TestPredictShortHistory(t *testing.T) {
	c := Coefficients{0.5, 0.5, 0.0}
	h := []geo.Point{geo.Pt(2, 2)} // only one lag available
	if got := Predict(c, h); got != geo.Pt(1, 1) {
		t.Fatalf("short history prediction = %v, want (1,1)", got)
	}
}

func TestFitRecoversLinearDynamics(t *testing.T) {
	// Generate trajectories following T^t = 1.6·T^{t−1} − 0.6·T^{t−2}
	// (constant-velocity-ish dynamics) and check Fit recovers the weights.
	rng := rand.New(rand.NewSource(1))
	k := 2
	var histories [][]geo.Point
	var targets []geo.Point
	for i := 0; i < 200; i++ {
		p0 := geo.Pt(rng.Float64()*10, rng.Float64()*10)
		p1 := p0.Add(geo.Pt(rng.NormFloat64()*0.1, rng.NormFloat64()*0.1))
		p2 := p1.Scale(1.6).Sub(p0.Scale(0.6))
		histories = append(histories, []geo.Point{p0, p1})
		targets = append(targets, p2)
	}
	c := fit(k, histories, targets)
	// Coefficients come back on the Q5.10 fixed-point grid, so recovery is
	// exact to half a grid step.
	if math.Abs(c[0]-1.6) > 1.0/1024 || math.Abs(c[1]+0.6) > 1.0/1024 {
		t.Fatalf("coefficients = %v, want ≈[1.6 -0.6]", c)
	}
	if mae := residualMAE(c, histories, targets); mae > 0.05 {
		t.Fatalf("residual MAE %v too large for near-exact dynamics", mae)
	}
}

func TestFitFallsBackWithTooFewRows(t *testing.T) {
	c := fit(3, [][]geo.Point{{geo.Pt(1, 1)}}, []geo.Point{geo.Pt(2, 2)})
	want := RandomWalk(3)
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("expected random-walk fallback, got %v", c)
		}
	}
	if got := fit(0, nil, nil); got != nil {
		t.Fatalf("k=0 should return nil, got %v", got)
	}
}

func TestFitIgnoresShortHistories(t *testing.T) {
	// Mix of full and short histories: the short ones must not corrupt
	// the fit.
	rng := rand.New(rand.NewSource(2))
	var histories [][]geo.Point
	var targets []geo.Point
	for i := 0; i < 100; i++ {
		p0 := geo.Pt(rng.Float64(), rng.Float64())
		p1 := p0.Add(geo.Pt(0.01, 0.01))
		histories = append(histories, []geo.Point{p0, p1})
		targets = append(targets, p1.Scale(2).Sub(p0)) // constant velocity
	}
	histories = append(histories, []geo.Point{geo.Pt(999, 999)}) // short
	targets = append(targets, geo.Pt(-999, -999))
	c := fit(2, histories, targets)
	if math.Abs(c[0]-2) > 1e-6 || math.Abs(c[1]+1) > 1e-6 {
		t.Fatalf("coefficients = %v, want [2 -1]", c)
	}
}

func TestFitPredictionBeatsRandomWalkOnSmoothMotion(t *testing.T) {
	// Smooth accelerating motion: a fitted model must out-predict the
	// previous-point fallback — this is the entire premise of E-PQ
	// (narrower error range than raw deltas).
	rng := rand.New(rand.NewSource(3))
	k := 3
	var histories [][]geo.Point
	var targets []geo.Point
	for i := 0; i < 300; i++ {
		base := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		vel := geo.Pt(rng.NormFloat64(), rng.NormFloat64())
		var pts []geo.Point
		for s := 0; s < k+1; s++ {
			pts = append(pts, base.Add(vel.Scale(float64(s))))
		}
		histories = append(histories, pts[:k])
		targets = append(targets, pts[k])
	}
	c := fit(k, histories, targets)
	fitMAE := residualMAE(c, histories, targets)
	rwMAE := residualMAE(RandomWalk(k), histories, targets)
	if fitMAE >= rwMAE {
		t.Fatalf("fit MAE %v should beat random walk %v", fitMAE, rwMAE)
	}
}

func TestAutocorrFeatureSeparatesRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k := 2
	// Regime A: smooth strongly-autocorrelated cruise.
	smooth := make([]geo.Point, 100)
	pos, vel := geo.Pt(0, 0), geo.Pt(0.1, 0.05)
	for i := range smooth {
		pos = pos.Add(vel)
		smooth[i] = pos
	}
	// Regime B: pure white noise (no autocorrelation in increments).
	noisy := make([]geo.Point, 100)
	for i := range noisy {
		noisy[i] = geo.Pt(rng.NormFloat64(), rng.NormFloat64())
	}
	fa := autocorrFeature(smooth, k)
	fb := autocorrFeature(noisy, k)
	var dist float64
	for i := range fa {
		d := fa[i] - fb[i]
		dist += d * d
	}
	if math.Sqrt(dist) < 0.3 {
		t.Fatalf("regimes should be separated in feature space: %v vs %v", fa, fb)
	}
}

func TestAutocorrFeatureLength(t *testing.T) {
	f := autocorrFeature(nil, 4)
	if len(f) != 4 {
		t.Fatalf("feature length %d, want 4", len(f))
	}
	for _, v := range f {
		if v != 0 {
			t.Fatal("empty window should give zero feature")
		}
	}
}
