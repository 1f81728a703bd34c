// Package mat implements the small dense linear algebra kernel that
// PPQ-trajectory's predictive quantizer needs: least-squares solves for the
// prediction coefficients P_j[t] (Equation 1) and Yule-Walker fits for the
// per-trajectory lag-k autocorrelation features used by the
// autocorrelation-based partitioner (Equation 8).
//
// The systems involved are tiny (k×k with k typically 2–5), so the package
// favors clarity and numerical robustness (partial pivoting, ridge
// fallback) over asymptotic tricks.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no usable solution even
// after regularization.
var ErrSingular = errors.New("mat: singular system")

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// solveLinearInto solves the square system A·x = b using Gaussian
// elimination with partial pivoting, writing the solution into x (len n).
// A and b are overwritten. It returns ErrSingular when a pivot collapses
// below tolerance.
func solveLinearInto(x []float64, a *Dense, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("mat: solveLinearInto requires a square system")
	}
	const tol = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest magnitude in col.
		pivot := col
		maxAbs := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < tol {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a.Data[col*n+j], a.Data[pivot*n+j] = a.Data[pivot*n+j], a.Data[col*n+j]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Data[r*n+j] -= f * a.Data[col*n+j]
			}
			b[r] -= f * b[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// LSWorkspace owns the scratch of repeated least-squares solves so the
// per-partition coefficient fits of the build loop allocate nothing in
// steady state. The zero value is ready to use; a workspace is not safe
// for concurrent use (each build worker owns one).
type LSWorkspace struct {
	ata, sys Dense
	atb, rhs []float64
	x        []float64
}

// grow resizes a zero-filled n-vector out of buf.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func (d *Dense) reset(rows, cols int) {
	d.Rows, d.Cols = rows, cols
	d.Data = grow(d.Data, rows*cols)
}

// LeastSquares solves min ‖A·x − b‖² via the normal equations
// AᵀA·x = Aᵀb, falling back to a small ridge term when AᵀA is singular
// (which happens for degenerate windows, e.g. a stationary trajectory).
// A has one row per observation and one column per coefficient. The
// returned slice aliases the workspace and is valid until the next call —
// callers that retain coefficients must copy them.
func (w *LSWorkspace) LeastSquares(a *Dense, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		panic(fmt.Sprintf("mat: LeastSquares rows %d vs b %d", a.Rows, len(b)))
	}
	n := a.Cols
	if a.Rows < n {
		return nil, fmt.Errorf("mat: underdetermined system (%d rows, %d cols)", a.Rows, n)
	}
	w.ata.reset(n, n)
	w.atb = grow(w.atb, n)
	ata, atb := &w.ata, w.atb
	for r := 0; r < a.Rows; r++ {
		row := a.Data[r*n : (r+1)*n]
		for i := 0; i < n; i++ {
			atb[i] += row[i] * b[r]
			for j := i; j < n; j++ {
				ata.Data[i*n+j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < n; i++ { // mirror the upper triangle
		for j := 0; j < i; j++ {
			ata.Data[i*n+j] = ata.Data[j*n+i]
		}
	}
	// Try the plain normal equations first; add ridge on failure.
	for _, ridge := range []float64{0, 1e-9, 1e-6, 1e-3} {
		w.sys.reset(n, n)
		copy(w.sys.Data, ata.Data)
		w.rhs = grow(w.rhs, n)
		copy(w.rhs, atb)
		if ridge > 0 {
			// Scale the ridge with the trace so it is dimensionless.
			tr := 0.0
			for i := 0; i < n; i++ {
				tr += ata.At(i, i)
			}
			lambda := ridge * (tr/float64(n) + 1)
			for i := 0; i < n; i++ {
				w.sys.Data[i*n+i] += lambda
			}
		}
		w.x = grow(w.x, n)
		if x, err := solveLinearInto(w.x, &w.sys, w.rhs); err == nil {
			ok := true
			for _, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					ok = false
					break
				}
			}
			if ok {
				return x, nil
			}
		}
	}
	return nil, ErrSingular
}

// autocovarianceInto writes the sample autocovariances γ₀..γ_k of series
// x into out (len k+1, cleared here): the biased estimator, the standard
// choice for Yule-Walker.
func autocovarianceInto(out []float64, x []float64, k int) []float64 {
	for i := range out {
		out[i] = 0
	}
	n := len(x)
	if n == 0 {
		return out
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	for lag := 0; lag <= k && lag < n; lag++ {
		var s float64
		for t := lag; t < n; t++ {
			s += (x[t] - mean) * (x[t-lag] - mean)
		}
		out[lag] = s / float64(n)
	}
	return out
}

// ARWorkspace owns the scratch of repeated Yule-Walker fits (the
// per-trajectory autocorrelation features are re-estimated every tick).
// The zero value is ready; not safe for concurrent use.
type ARWorkspace struct {
	gamma, rhs, x []float64
	sys           Dense
}

// YuleWalkerInto fits an AR(k) model to series x and writes the k
// autoregressive coefficients into dst (len k), returning dst. These are
// the {a_i^t} features the autocorrelation-based partitioner clusters on
// (§3.2.1). When the series is too short or degenerate (constant), it
// returns the zero vector, which places such trajectories in a common "no
// signal" region of feature space.
func (w *ARWorkspace) YuleWalkerInto(dst []float64, x []float64, k int) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	if len(x) < k+2 {
		return dst
	}
	w.gamma = grow(w.gamma, k+1)
	gamma := autocovarianceInto(w.gamma, x, k)
	if gamma[0] < 1e-15 { // constant series
		return dst
	}
	// Toeplitz system R·a = r with R[i][j] = γ(|i−j|), r[i] = γ(i+1).
	w.sys.reset(k, k)
	w.rhs = grow(w.rhs, k)
	sys, rhs := &w.sys, w.rhs
	for i := 0; i < k; i++ {
		rhs[i] = gamma[i+1]
		for j := 0; j < k; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			sys.Set(i, j, gamma[d])
		}
	}
	// Ridge for near-singular Toeplitz matrices (strongly correlated lags).
	for i := 0; i < k; i++ {
		sys.Data[i*k+i] += 1e-9 * gamma[0]
	}
	w.x = grow(w.x, k)
	a, err := solveLinearInto(w.x, sys, rhs)
	if err != nil {
		return dst
	}
	copy(dst, a)
	return dst
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// EuclideanDist returns ‖a − b‖₂ for equal-length vectors.
func EuclideanDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: EuclideanDist length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
