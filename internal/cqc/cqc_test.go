package cqc

import (
	"math"
	"math/rand"
	"testing"

	"ppqtraj/internal/geo"
)

func TestNewCoderGeometry(t *testing.T) {
	// ε₁ = 0.001 (≈111 m), g_s = 50 m in degrees — the paper's defaults.
	gs := geo.MetersToDegrees(50)
	c := NewCoder(0.001, gs)
	// half = ceil(0.001/0.000450…) = 3 → n = 7.
	if c.n != 7 {
		t.Fatalf("grid side = %d, want 7", c.n)
	}
	// depth: 7→4→2→1 = 3 levels → 6-bit codes ("short binary codes").
	if c.CodeBits() != 6 {
		t.Fatalf("CodeBits = %d, want 6", c.CodeBits())
	}
	if math.Abs(c.MaxDeviation()-math.Sqrt2/2*gs) > 1e-15 {
		t.Fatal("MaxDeviation formula wrong")
	}
}

func TestNewCoderPanicsOnBadParams(t *testing.T) {
	for _, p := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", p)
				}
			}()
			NewCoder(p[0], p[1])
		}()
	}
}

func TestEncodeDecodeCellRoundTripExhaustive(t *testing.T) {
	// The core CQC invariant: every real grid cell round-trips exactly.
	for _, params := range []struct{ eps, gs float64 }{
		{1, 1},                           // 3×3
		{2.5, 1},                         // 7×7
		{5, 1},                           // 11×11
		{2, 1},                           // 5×5 — the paper's worked example size
		{10, 1},                          // 21×21
		{0.001, geo.MetersToDegrees(50)}, // paper defaults
	} {
		c := NewCoder(params.eps, params.gs)
		n := c.n
		if n%2 != 1 {
			t.Fatalf("grid side %d should be odd", n)
		}
		seen := map[Code]bool{}
		for ix := 0; ix < n; ix++ {
			for iy := 0; iy < n; iy++ {
				code := c.EncodeCell(ix, iy)
				if int(code.Len) != c.CodeBits() {
					t.Fatalf("n=%d: non-uniform code length %d (want %d)", n, code.Len, c.CodeBits())
				}
				if seen[code] {
					t.Fatalf("n=%d: duplicate code %v", n, code)
				}
				seen[code] = true
				gx, gy := c.DecodeCell(code)
				if gx != ix || gy != iy {
					t.Fatalf("n=%d: cell (%d,%d) decoded to (%d,%d)", n, ix, iy, gx, gy)
				}
			}
		}
	}
}

func TestEncodeCellPanicsOutsideGrid(t *testing.T) {
	c := NewCoder(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.EncodeCell(-1, 0)
}

func TestCenterCodeStable(t *testing.T) {
	c := NewCoder(2, 1) // 5×5, center (2,2)
	// cqc₁, the center cell's code: where the original point always sits
	// (§4.2), a template constant never stored per point.
	code := c.EncodeCell(c.m, c.m)
	ix, iy := c.DecodeCell(code)
	if ix != 2 || iy != 2 {
		t.Fatalf("center decodes to (%d,%d)", ix, iy)
	}
}

func TestCodeString(t *testing.T) {
	c := Code{Bits: 0b001110, Len: 6}
	if c.String() != "001110" {
		t.Fatalf("String = %q", c.String())
	}
	if (Code{}).String() != "" {
		t.Fatal("empty code should render empty")
	}
}

// TestLemma3 is the paper's central CQC guarantee: after refinement the
// reconstruction error never exceeds (√2/2)·g_s, for any reconstruction
// within the ε₁ ball of the original.
func TestLemma3(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, params := range []struct{ eps, gs float64 }{
		{0.001, geo.MetersToDegrees(50)},
		{0.002, geo.MetersToDegrees(100)},
		{0.0005, geo.MetersToDegrees(10)},
		{3, 1},
	} {
		c := NewCoder(params.eps, params.gs)
		bound := c.MaxDeviation() + 1e-12
		for iter := 0; iter < 5000; iter++ {
			orig := geo.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
			// Random displacement within the ε₁ circle.
			theta := rng.Float64() * 2 * math.Pi
			rad := rng.Float64() * params.eps
			recon := orig.Add(geo.Pt(math.Cos(theta)*rad, math.Sin(theta)*rad))
			code := c.Encode(orig, recon)
			refined := c.Refine(recon, code)
			if d := refined.Dist(orig); d > bound {
				t.Fatalf("eps=%v gs=%v: deviation %v > Lemma 3 bound %v",
					params.eps, params.gs, d, c.MaxDeviation())
			}
		}
	}
}

func TestRefineImprovesOverRawReconstruction(t *testing.T) {
	// On average CQC refinement must reduce error relative to the raw
	// codebook reconstruction (that is its purpose: Table 2, PPQ-x vs
	// PPQ-x-basic).
	rng := rand.New(rand.NewSource(2))
	c := NewCoder(0.001, geo.MetersToDegrees(50))
	var rawSum, refSum float64
	const iters = 2000
	for i := 0; i < iters; i++ {
		orig := geo.Pt(rng.Float64(), rng.Float64())
		theta := rng.Float64() * 2 * math.Pi
		rad := 0.2*0.001 + rng.Float64()*0.8*0.001 // mostly large errors
		recon := orig.Add(geo.Pt(math.Cos(theta)*rad, math.Sin(theta)*rad))
		rawSum += recon.Dist(orig)
		refSum += c.Refine(recon, c.Encode(orig, recon)).Dist(orig)
	}
	if refSum >= rawSum {
		t.Fatalf("refined MAE %v should beat raw %v", refSum/iters, rawSum/iters)
	}
}

func TestEncodeClampsOversizedDisplacement(t *testing.T) {
	c := NewCoder(1, 0.5)
	orig := geo.Pt(0, 0)
	recon := geo.Pt(100, -100)    // far outside the ε₁ ball
	code := c.Encode(orig, recon) // must not panic
	refined := c.Refine(recon, code)
	if !refined.IsFinite() {
		t.Fatal("non-finite refinement")
	}
}

func TestCodesAreSpatiallyConsistent(t *testing.T) {
	// Two reconstructions in the same cell must produce the same code.
	c := NewCoder(2, 1)
	orig := geo.Pt(0, 0)
	a := c.Encode(orig, geo.Pt(1.1, 0.9))
	b := c.Encode(orig, geo.Pt(0.9, 1.1))
	if a != b {
		t.Fatalf("same-cell reconstructions got different codes %v vs %v", a, b)
	}
}

func TestDepthGrowsLogarithmically(t *testing.T) {
	small := NewCoder(2, 1)   // 5×5
	large := NewCoder(128, 1) // 257×257
	if large.CodeBits() > small.CodeBits()+14 {
		t.Fatalf("code length should grow logarithmically: %d vs %d",
			large.CodeBits(), small.CodeBits())
	}
	// 257 → 129 → 65 → 33 → 17 → 9 → 5 → 3 → 2 → 1: 9 levels → 18 bits.
	if large.CodeBits() != 18 {
		t.Fatalf("257×257 grid CodeBits = %d, want 18", large.CodeBits())
	}
}

func BenchmarkEncodeRefine(b *testing.B) {
	c := NewCoder(0.001, geo.MetersToDegrees(50))
	orig := geo.Pt(0.5, 0.5)
	recon := geo.Pt(0.5004, 0.4996)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code := c.Encode(orig, recon)
		c.Refine(recon, code)
	}
}
