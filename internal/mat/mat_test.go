package mat

import (
	"math"
	"math/rand"
	"testing"
)

// newDense allocates a rows×cols zero matrix.
func newDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// solve is solveLinearInto with a fresh solution vector.
func solve(a *Dense, b []float64) ([]float64, error) {
	return solveLinearInto(make([]float64, a.Rows), a, b)
}

// mulVec returns m · x.
func mulVec(m *Dense, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		for j := 0; j < m.Cols; j++ {
			out[i] += m.At(i, j) * x[j]
		}
	}
	return out
}

// yuleWalker fits AR(k) with a fresh workspace.
func yuleWalker(x []float64, k int) []float64 {
	var ws ARWorkspace
	return ws.YuleWalkerInto(make([]float64, k), x, k)
}

func TestSolveLinearIdentity(t *testing.T) {
	a := newDense(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{1, 2, 3}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(x[i]-want) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestSolveLinearKnown(t *testing.T) {
	// 2x + y = 5 ; x - y = 1  →  x = 2, y = 1
	a := newDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	x, err := solve(a, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("x = %v, want [2 1]", x)
	}
}

func TestSolveLinearNeedsPivot(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := newDense(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := newDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4) // rank 1
	if _, err := solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(6)
		a := newDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance guarantees well-conditioned systems.
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += float64(n) * 3
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := mulVec(a, want)
		// solveLinearInto destroys its inputs; keep using fresh copies.
		ac := newDense(n, n)
		copy(ac.Data, a.Data)
		bc := make([]float64, n)
		copy(bc, b)
		got, err := solve(ac, bc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("iter %d: x[%d] = %v, want %v", iter, i, got[i], want[i])
			}
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: b = A·[2, -1].
	a := newDense(4, 2)
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
	for i, r := range rows {
		a.Set(i, 0, r[0])
		a.Set(i, 1, r[1])
	}
	want := []float64{2, -1}
	b := mulVec(a, want)
	x, err := new(LSWorkspace).LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLeastSquaresNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := newDense(500, 3)
	want := []float64{0.5, -0.25, 1.5}
	b := make([]float64, 500)
	for i := 0; i < 500; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			s += v * want[j]
		}
		b[i] = s + rng.NormFloat64()*0.01
	}
	x, err := new(LSWorkspace).LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 0.01 {
			t.Fatalf("x = %v, want approx %v", x, want)
		}
	}
}

func TestLeastSquaresDegenerate(t *testing.T) {
	// All-zero design matrix: ridge fallback must still return finite
	// coefficients rather than exploding.
	a := newDense(5, 2)
	b := []float64{1, 1, 1, 1, 1}
	x, err := new(LSWorkspace).LeastSquares(a, b)
	if err != nil {
		t.Fatalf("ridge fallback failed: %v", err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite coefficient %v", x)
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	a := newDense(1, 3)
	if _, err := new(LSWorkspace).LeastSquares(a, []float64{1}); err == nil {
		t.Fatal("expected error for underdetermined system")
	}
}

func TestAutocovarianceConstant(t *testing.T) {
	g := autocovarianceInto(make([]float64, 3), []float64{5, 5, 5, 5}, 2)
	for lag, v := range g {
		if v != 0 {
			t.Errorf("γ[%d] = %v for constant series, want 0", lag, v)
		}
	}
}

func TestAutocovarianceLag0IsVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	g := autocovarianceInto(make([]float64, 2), x, 1)
	// Biased variance of {1,2,3,4} = 1.25
	if math.Abs(g[0]-1.25) > 1e-12 {
		t.Fatalf("γ₀ = %v, want 1.25", g[0])
	}
}

func TestYuleWalkerRecoversAR1(t *testing.T) {
	// Simulate x_t = 0.8·x_{t−1} + ε and check the fitted coefficient.
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 20000)
	for t := 1; t < len(x); t++ {
		x[t] = 0.8*x[t-1] + rng.NormFloat64()*0.1
	}
	a := yuleWalker(x, 1)
	if math.Abs(a[0]-0.8) > 0.02 {
		t.Fatalf("AR(1) coefficient = %v, want ≈0.8", a[0])
	}
}

func TestYuleWalkerRecoversAR2(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	phi := []float64{0.5, 0.3}
	x := make([]float64, 50000)
	for t := 2; t < len(x); t++ {
		x[t] = phi[0]*x[t-1] + phi[1]*x[t-2] + rng.NormFloat64()*0.1
	}
	a := yuleWalker(x, 2)
	for i := range phi {
		if math.Abs(a[i]-phi[i]) > 0.03 {
			t.Fatalf("AR(2) = %v, want ≈%v", a, phi)
		}
	}
}

func TestYuleWalkerDegenerateInputs(t *testing.T) {
	if a := yuleWalker(nil, 3); len(a) != 3 {
		t.Fatal("wrong length for nil input")
	}
	if a := yuleWalker([]float64{1, 1, 1, 1, 1, 1}, 2); a[0] != 0 || a[1] != 0 {
		t.Fatalf("constant series should give zero coefficients, got %v", a)
	}
	if a := yuleWalker([]float64{1, 2}, 3); len(a) != 3 {
		t.Fatal("short series should still return k coefficients")
	}
}

func TestVectorHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot wrong")
	}
	if math.Abs(EuclideanDist([]float64{0, 0}, []float64{3, 4})-5) > 1e-12 {
		t.Error("EuclideanDist wrong")
	}
}
