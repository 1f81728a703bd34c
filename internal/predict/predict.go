// Package predict implements the prediction side of PPQ-trajectory's
// predictive quantizer: fitting the shared linear coefficients P_j[t] of
// Equation 1 over a partition's trajectories, applying them to previous
// reconstructed points (Equation 2), and extracting the per-trajectory
// lag-k autocorrelation features {a_i^t} that drive the
// autocorrelation-based partitioning of Equation 8.
package predict

import (
	"math"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/mat"
)

// Coefficients are the prediction weights P_1..P_k applied to the k most
// recent reconstructed points, most recent first: the prediction is
// Σ_j P_j · T̂^{t−j}.
type Coefficients []float64

// RandomWalk returns the fallback coefficients that predict the previous
// point (P = [1, 0, …, 0]) — used when a partition has too few
// observations to fit a least-squares model.
func RandomWalk(k int) Coefficients {
	c := make(Coefficients, k)
	if k > 0 {
		c[0] = 1
	}
	return c
}

// Predict applies the coefficients to history, which holds the previous
// reconstructed points oldest-first (history[len-1] is T̂^{t−1}). When the
// history is shorter than k, the available lags are used with the same
// leading coefficients; an empty history predicts the origin (the paper
// sets P_j[t] = 0 for t ≤ k, i.e. early points are quantized raw).
func Predict(c Coefficients, history []geo.Point) geo.Point {
	var p geo.Point
	n := len(history)
	for j := 0; j < len(c) && j < n; j++ {
		// lag j+1 ⇒ history[n-1-j]. The explicit float64 rounds each
		// product before the sum, so no architecture fuses the two into
		// one multiply-add: every decoder rebuilds the same bits.
		q := history[n-1-j].Scale(c[j])
		p = p.Add(geo.Point{X: float64(q.X), Y: float64(q.Y)})
	}
	return p
}

// Fitter owns the reusable design-matrix and solver scratch of repeated
// fits, so the per-partition fits of the build loop stop allocating.
// The zero value is ready; a Fitter is not safe for concurrent use (each
// build worker owns one).
type Fitter struct {
	a  mat.Dense
	b  []float64
	ls mat.LSWorkspace
}

// Fit solves Equation 1 for one partition: find P minimizing
// Σ_i ‖T_i^t − Σ_j P_j·T̂_i^{t−j}‖². histories[i] holds the k previous
// reconstructed points of trajectory i oldest-first (all length ≥ k),
// targets[i] is the observed point. The x and y equations share the
// coefficients, so both are stacked into one least-squares system.
// Partitions with fewer observations than coefficients fall back to
// RandomWalk. The returned Coefficients are freshly allocated (they are
// retained by the summary).
func (f *Fitter) Fit(k int, histories [][]geo.Point, targets []geo.Point) Coefficients {
	if k < 1 {
		return nil
	}
	// Count usable rows: trajectories with a full k-history.
	usable := 0
	for _, h := range histories {
		if len(h) >= k {
			usable++
		}
	}
	if 2*usable < k+1 { // not enough equations for a stable fit
		return RandomWalk(k)
	}
	f.a.Rows, f.a.Cols = 2*usable, k
	if need := 2 * usable * k; cap(f.a.Data) < need {
		f.a.Data = make([]float64, need)
	} else {
		f.a.Data = f.a.Data[:need]
	}
	if cap(f.b) < 2*usable {
		f.b = make([]float64, 2*usable)
	} else {
		f.b = f.b[:2*usable]
	}
	a, b := &f.a, f.b
	row := 0
	for i, h := range histories {
		if len(h) < k {
			continue
		}
		n := len(h)
		for j := 0; j < k; j++ {
			prev := h[n-1-j]
			a.Set(row, j, prev.X)
			a.Set(row+1, j, prev.Y)
		}
		b[row] = targets[i].X
		b[row+1] = targets[i].Y
		row += 2
	}
	coeffs, err := f.ls.LeastSquares(a, b)
	if err != nil {
		return RandomWalk(k)
	}
	return QuantizeCoefficients(coeffs)
}

// QuantizeCoefficients rounds coefficients to the Q5.10 fixed-point grid
// (16 bits: range ±32, step 1/1024). The prediction residual is quantized
// against the ε₁-bounded codebook anyway, so coefficient precision beyond
// ~10 fractional bits buys nothing, while the summary stores 4× fewer
// bits per coefficient. Encoder and decoder both use the quantized values,
// so reconstructions stay bit-identical.
func QuantizeCoefficients(c Coefficients) Coefficients {
	out := make(Coefficients, len(c))
	for i, v := range c {
		g := math.Round(v * 1024)
		if g > 32767 {
			g = 32767
		}
		if g < -32768 {
			g = -32768
		}
		out[i] = g / 1024
	}
	return out
}

// CoefficientBits is the per-coefficient storage cost implied by
// QuantizeCoefficients.
const CoefficientBits = 16

// ARScratch computes the lag-k autocorrelation feature a_i^t of a
// trajectory from its recent window of raw points: the AR(k) coefficients
// (Yule-Walker) of the *differenced* coordinate series, averaged over x
// and y into one k-dim vector. The paper derives AR(k) parameters of the
// position process (§3.2.1); positions over a short window are
// trend-dominated (non-stationary), which makes the raw-position fit
// numerically erratic, so we fit the increments — the standard
// stationarity transform — which yields stable, regime-clustered features
// for Equation 8 to partition on. Trajectories with similar motion
// regimes (smooth cruise, jittery walk, …) land close together. It owns
// the buffers of repeated estimates; the zero value is ready; not safe
// for concurrent use.
type ARScratch struct {
	xs, ys, ax, ay []float64
	ws             mat.ARWorkspace
}

// FeatureInto computes the lag-k autocorrelation feature of the point
// series prev[0], …, prev[len-1], cur into dst (len k) without
// materializing the concatenated window. It returns dst.
func (s *ARScratch) FeatureInto(dst []float64, prev []geo.Point, cur geo.Point, k int) []float64 {
	m := len(prev) // number of increments in the series prev…cur
	if m == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	if cap(s.xs) < m {
		s.xs = make([]float64, m)
		s.ys = make([]float64, m)
	}
	xs, ys := s.xs[:m], s.ys[:m]
	for i := 1; i < m; i++ {
		xs[i-1] = prev[i].X - prev[i-1].X
		ys[i-1] = prev[i].Y - prev[i-1].Y
	}
	xs[m-1] = cur.X - prev[m-1].X
	ys[m-1] = cur.Y - prev[m-1].Y
	if cap(s.ax) < k {
		s.ax = make([]float64, k)
		s.ay = make([]float64, k)
	}
	ax := s.ws.YuleWalkerInto(s.ax[:k], xs, k)
	ay := s.ws.YuleWalkerInto(s.ay[:k], ys, k)
	for i := range dst {
		dst[i] = (ax[i] + ay[i]) / 2
	}
	return dst
}
