// Package cqc implements Coordinate Quadtree Coding (§4 of the paper):
// short binary codes for the residual error space left by the
// error-bounded codebook.
//
// After quantization, the original point (x, y) lies within the ε₁-circle
// c₁ around the reconstruction (x̂, ŷ) — equivalently, (x̂, ŷ) lies within
// the circle around (x, y). CQC grids the minimum square S covering c₁
// into cells of size g_s and builds a *coordinate quadtree* over the grid
// (Algorithm 2): a quadtree whose nodes carry the coordinate of the
// subspace they represent, with per-quadrant padding so every split yields
// four equally-sized children (Figure 3). The code of a node is the
// concatenated 2-bit quadrant labels on the root-to-node path
// (Definition 4.2); Equations 9–10 recover the real position from a code.
//
// The original point sits, by construction, at the center cell of its own
// grid, so its code cqc₁ is a template constant; only the code cqc₂ of the
// reconstructed point is stored per sample. Reconstruction with CQC
// (Equation 11) then reduces the spatial deviation from ε₁ to at most
// (√2/2)·g_s (Lemma 3).
//
// Because the tree shape is fully determined by (ε₁, g_s), the template is
// never materialized: Encode and Decode replay the deterministic
// pad-and-split rules.
package cqc

import (
	"fmt"
	"math"

	"ppqtraj/internal/geo"
)

// Quadrant labels, matching Figure 3: 00 upper-left, 01 upper-right,
// 10 bottom-left, 11 bottom-right.
const (
	quadUpperLeft  = 0b00
	quadUpperRight = 0b01
	quadLowerLeft  = 0b10
	quadLowerRight = 0b11
)

// Code is a CQC code: Bits holds the 2-bit quadrant labels of the
// root-to-leaf path, most significant pair first; Len is the bit length.
// All codes of one Coder share the same length (padding equalizes child
// sizes, so the tree has uniform depth).
type Code struct {
	Bits uint64
	Len  uint8
}

// String renders the code as a binary string, e.g. "001110".
func (c Code) String() string {
	if c.Len == 0 {
		return ""
	}
	return fmt.Sprintf("%0*b", c.Len, c.Bits)
}

// Coder encodes/decodes cell positions of the residual grid. It is shared
// by all points of a summary (one per (ε₁, g_s) pair, §4.2: "a unified and
// fixed coordinate quadtree is obtained ... stored as a template").
type Coder struct {
	eps   float64 // ε₁: radius of the error circle
	gs    float64 // g_s: grid cell size
	n     int     // grid is n×n cells, n odd so a center cell exists
	m     int     // center cell index: (n−1)/2
	depth int     // uniform tree depth; code length is 2·depth bits

	// The tree shape is fixed by (ε₁, g_s) and grids are small, so both
	// directions memoize as tables: cell → code and code bits → Refine
	// offset. Encode/Refine run per point in the build hot loop; the
	// tables turn the quadtree walks into array loads. Nil for grids too
	// large to tabulate (the walk remains the fallback).
	codeTab []Code
	offTab  []geo.Point
}

// maxTableCodes bounds the memoization tables (4^depth entries).
const maxTableCodes = 1 << 16

// NewCoder builds the CQC template for the given error bound and grid
// cell size. It panics when either parameter is non-positive.
func NewCoder(eps1, gs float64) *Coder {
	if eps1 <= 0 || gs <= 0 {
		panic(fmt.Sprintf("cqc: invalid parameters ε₁=%v g_s=%v", eps1, gs))
	}
	// The square S covering the ε₁-circle spans [−ε₁, ε₁] in each axis.
	// Using an odd cell count keeps the original point exactly at the
	// center cell (§4.2). half cells cover [0, ε₁] beyond the center cell.
	half := int(math.Ceil(eps1 / gs))
	n := 2*half + 1
	d := 0
	for s := n; s > 1; s = (s + 1) / 2 {
		d++
	}
	c := &Coder{eps: eps1, gs: gs, n: n, m: half, depth: d}
	if codes := 1 << uint(2*d); codes <= maxTableCodes {
		c.codeTab = make([]Code, n*n)
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				c.codeTab[iy*n+ix] = c.encodeCellWalk(ix, iy)
			}
		}
		c.offTab = make([]geo.Point, codes)
		for bits := 0; bits < codes; bits++ {
			ix, iy := c.DecodeCell(Code{Bits: uint64(bits), Len: uint8(2 * d)})
			c.offTab[bits] = geo.Point{X: float64(ix-half) * gs, Y: float64(iy-half) * gs}
		}
	}
	return c
}

// Epsilon returns ε₁.
func (c *Coder) Epsilon() float64 { return c.eps }

// CodeBits returns the fixed code length in bits (2 bits per tree level).
// This is the per-point CQC storage cost used by the compression-ratio
// accounting (Figure 9).
func (c *Coder) CodeBits() int { return 2 * c.depth }

// MaxDeviation returns the Lemma 3 bound (√2/2)·g_s.
func (c *Coder) MaxDeviation() float64 { return math.Sqrt2 / 2 * c.gs }

// rect is a node's cell range [x0,x1)×[y0,y1) in grid coordinates; padding
// may push it outside [0, n).
type rect struct{ x0, y0, x1, y1 int }

func (r rect) w() int { return r.x1 - r.x0 }
func (r rect) h() int { return r.y1 - r.y0 }

// pad grows r to even width/height. The paper pads each subspace toward
// its own outer corner (Figure 3: quadrant 00 pads upper-left, 10
// bottom-left, 11 bottom-right), so padded cells of siblings never
// overlap real cells. dirX/dirY are −1 or +1: the corner this node pads
// toward.
func pad(r rect, dirX, dirY int) rect {
	if r.w()%2 == 1 {
		if dirX < 0 {
			r.x0--
		} else {
			r.x1++
		}
	}
	if r.h()%2 == 1 {
		if dirY < 0 {
			r.y0--
		} else {
			r.y1++
		}
	}
	return r
}

// quadDir returns the padding direction of a quadrant (toward its own
// corner). The root uses the upper-left convention of the paper's example
// (5×5 S expands toward the upper left, Figure 3a).
func quadDir(q int) (dx, dy int) {
	switch q {
	case quadUpperLeft:
		return -1, +1
	case quadUpperRight:
		return +1, +1
	case quadLowerLeft:
		return -1, -1
	default: // quadLowerRight
		return +1, -1
	}
}

// child returns the sub-rect of padded rect r for quadrant q. r must have
// even width and height. y grows upward: "upper" quadrants have larger y.
func child(r rect, q int) rect {
	mx := (r.x0 + r.x1) / 2
	my := (r.y0 + r.y1) / 2
	switch q {
	case quadUpperLeft:
		return rect{r.x0, my, mx, r.y1}
	case quadUpperRight:
		return rect{mx, my, r.x1, r.y1}
	case quadLowerLeft:
		return rect{r.x0, r.y0, mx, my}
	default:
		return rect{mx, r.y0, r.x1, my}
	}
}

// EncodeCell returns the CQC code of grid cell (ix, iy); both must be in
// [0, n), n the grid side.
func (c *Coder) EncodeCell(ix, iy int) Code {
	if ix < 0 || ix >= c.n || iy < 0 || iy >= c.n {
		panic(fmt.Sprintf("cqc: cell (%d,%d) outside %d×%d grid", ix, iy, c.n, c.n))
	}
	if c.codeTab != nil {
		return c.codeTab[iy*c.n+ix]
	}
	return c.encodeCellWalk(ix, iy)
}

// encodeCellWalk is the quadtree walk behind EncodeCell (also used to
// fill the memo table).
func (c *Coder) encodeCellWalk(ix, iy int) Code {
	r := rect{0, 0, c.n, c.n}
	dirX, dirY := -1, +1 // root pads upper-left (paper's Figure 3a)
	var code Code
	for r.w() > 1 || r.h() > 1 {
		r = pad(r, dirX, dirY)
		mx := (r.x0 + r.x1) / 2
		my := (r.y0 + r.y1) / 2
		var q int
		switch {
		case ix < mx && iy >= my:
			q = quadUpperLeft
		case ix >= mx && iy >= my:
			q = quadUpperRight
		case ix < mx && iy < my:
			q = quadLowerLeft
		default:
			q = quadLowerRight
		}
		code.Bits = code.Bits<<2 | uint64(q)
		code.Len += 2
		r = child(r, q)
		dirX, dirY = quadDir(q)
	}
	return code
}

// DecodeCell inverts EncodeCell. Codes that navigate into padding cells
// yield coordinates outside the grid; callers that construct codes
// only via EncodeCell never see that.
func (c *Coder) DecodeCell(code Code) (ix, iy int) {
	r := rect{0, 0, c.n, c.n}
	dirX, dirY := -1, +1
	for shift := int(code.Len) - 2; shift >= 0; shift -= 2 {
		q := int(code.Bits>>uint(shift)) & 0b11
		r = pad(r, dirX, dirY)
		r = child(r, q)
		dirX, dirY = quadDir(q)
	}
	return r.x0, r.y0
}

// cellOf maps a displacement d = recon − orig (each axis within ±ε₁) to
// the grid cell of the reconstructed point, clamping boundary cases.
func (c *Coder) cellOf(d geo.Point) (int, int) {
	ix := c.m + int(math.Round(d.X/c.gs))
	iy := c.m + int(math.Round(d.Y/c.gs))
	if ix < 0 {
		ix = 0
	}
	if ix >= c.n {
		ix = c.n - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= c.n {
		iy = c.n - 1
	}
	return ix, iy
}

// Encode produces the stored per-point code cqc₂: the cell of the
// reconstructed point within the grid centered on the original point.
// ‖recon − orig‖ is expected to be ≤ ε₁ (the codebook bound); larger
// displacements are clamped to the grid edge, which weakens but never
// breaks reconstruction.
func (c *Coder) Encode(orig, recon geo.Point) Code {
	ix, iy := c.cellOf(recon.Sub(orig))
	return c.EncodeCell(ix, iy)
}

// Refine applies Equation 11: given the codebook reconstruction (x̂, ŷ)
// and its stored code cqc₂, return the CQC-refined reconstruction
// (x̂′, ŷ′), which is within (√2/2)·g_s of the original point (Lemma 3).
func (c *Coder) Refine(recon geo.Point, code Code) geo.Point {
	if c.offTab != nil && int(code.Len) == 2*c.depth && code.Bits < uint64(len(c.offTab)) {
		return recon.Sub(c.offTab[code.Bits])
	}
	ix, iy := c.DecodeCell(code)
	// Displacement of the reconstructed point's cell center from the grid
	// center (where the original point lives): g_s · (c_cqc2 − c_cqc1),
	// rounded before the subtraction (the explicit float64) so no
	// architecture fuses the two, matching the table path bit for bit.
	off := geo.Point{X: float64(float64(ix-c.m) * c.gs), Y: float64(float64(iy-c.m) * c.gs)}
	return recon.Sub(off)
}
