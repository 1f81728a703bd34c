// Package geo provides the planar geometry primitives used throughout
// ppqtraj: points, rectangles, distance computations, rectangle
// subtraction/decomposition (the remove_overlap step of Algorithm 3), and
// the degree↔meter conversions the paper uses to report spatial deviations
// in meters (ε₁ = 0.001° ≈ 111 m, [Chang 2008]).
//
// All coordinates are float64 pairs. Trajectory data is stored in
// longitude/latitude order (X = longitude, Y = latitude) to match the
// datasets, but nothing in this package assumes geographic semantics except
// the explicit conversion helpers.
package geo

import (
	"fmt"
	"math"
)

// MetersPerDegree is the approximate ground distance of one degree of
// latitude (and of longitude at the equator). The paper uses the same
// flat conversion when reporting ε₁ in meters: 0.001° ≈ 111 m.
const MetersPerDegree = 111000.0

// DegreesToMeters converts a coordinate-space distance (degrees) to meters
// using the paper's flat conversion.
func DegreesToMeters(deg float64) float64 { return deg * MetersPerDegree }

// MetersToDegrees converts a ground distance in meters to coordinate-space
// degrees using the paper's flat conversion.
func MetersToDegrees(m float64) float64 { return m / MetersPerDegree }

// Point is a position in the plane. For geographic data X is longitude and
// Y is latitude.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It is the
// preferred comparison form in hot loops (no square root).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6f, %.6f)", p.X, p.Y) }

// Centroid returns the arithmetic mean of pts. It returns the zero Point
// for an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{sx / n, sy / n}
}

// Rect is an axis-aligned rectangle, closed on the min edges and open on
// the max edges ([MinX,MaxX) × [MinY,MaxY)) so that adjacent rectangles in
// a decomposition tile the plane without double-counting boundary points.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle with the given corners, normalizing the
// order of the bounds.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
}

// Empty reports whether r has zero (or negative) area.
func (r Rect) Empty() bool { return r.MaxX <= r.MinX || r.MaxY <= r.MinY }

// IsFinite reports whether all four bounds are finite numbers.
func (r Rect) IsFinite() bool {
	return (Point{X: r.MinX, Y: r.MinY}).IsFinite() && (Point{X: r.MaxX, Y: r.MaxY}).IsFinite()
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r (zero for empty rectangles).
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Contains reports whether p lies in r (min-closed, max-open).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Intersects reports whether r and s share any interior area.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX < s.MaxX && s.MinX < r.MaxX && r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Union returns the smallest rectangle covering both r and s. Empty inputs
// are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// DistToRect is the Euclidean distance from p to the closed rectangle r
// (zero when p is inside).
func (p Point) DistToRect(r Rect) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return math.Sqrt(dx*dx + dy*dy)
}

// MinDist is the minimum distance between the closed rectangles r and s
// (zero when they overlap or touch).
func (r Rect) MinDist(s Rect) float64 {
	dx := math.Max(0, math.Max(s.MinX-r.MaxX, r.MinX-s.MaxX))
	dy := math.Max(0, math.Max(s.MinY-r.MaxY, r.MinY-s.MaxY))
	return math.Sqrt(dx*dx + dy*dy)
}

// MaxDist is the maximum over points p of r of dist(p, s); for
// axis-aligned rectangles both axis terms are maximized at a corner.
func (r Rect) MaxDist(s Rect) float64 {
	dx := math.Max(0, math.Max(s.MinX-r.MinX, r.MaxX-s.MaxX))
	dy := math.Max(0, math.Max(s.MinY-r.MinY, r.MaxY-s.MaxY))
	return math.Sqrt(dx*dx + dy*dy)
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6f,%.6f]x[%.6f,%.6f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// BoundingRect returns the minimum rectangle covering pts, inflated by eps
// on the max edges so every point is strictly inside under the min-closed /
// max-open convention. It returns an empty Rect for no points.
func BoundingRect(pts []Point, eps float64) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		if p.X < r.MinX {
			r.MinX = p.X
		}
		if p.X > r.MaxX {
			r.MaxX = p.X
		}
		if p.Y < r.MinY {
			r.MinY = p.Y
		}
		if p.Y > r.MaxY {
			r.MaxY = p.Y
		}
	}
	r.MaxX += eps
	r.MaxY += eps
	return r
}

// Subtract returns r minus s decomposed into at most four disjoint
// rectangles. This is the polygon-to-rectangle conversion step used by
// Algorithm 3's remove_overlap [Gourley & Green 1983]: the part of a new
// region that overlaps already-indexed regions is cut away and the
// remainder is re-expressed as rectangles.
func (r Rect) Subtract(s Rect) []Rect {
	return r.appendSubtract(nil, s)
}

// appendSubtract appends r minus s (at most four disjoint rectangles)
// to dst — the allocation-free core of Subtract/SubtractAll.
func (r Rect) appendSubtract(dst []Rect, s Rect) []Rect {
	if r.Empty() {
		return dst
	}
	is := r.Intersect(s)
	if is.Empty() {
		return append(dst, r)
	}
	// Left slab.
	if r.MinX < is.MinX {
		dst = append(dst, Rect{MinX: r.MinX, MinY: r.MinY, MaxX: is.MinX, MaxY: r.MaxY})
	}
	// Right slab.
	if is.MaxX < r.MaxX {
		dst = append(dst, Rect{MinX: is.MaxX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY})
	}
	// Bottom slab (between the vertical slabs).
	if r.MinY < is.MinY {
		dst = append(dst, Rect{MinX: is.MinX, MinY: r.MinY, MaxX: is.MaxX, MaxY: is.MinY})
	}
	// Top slab.
	if is.MaxY < r.MaxY {
		dst = append(dst, Rect{MinX: is.MinX, MinY: is.MaxY, MaxX: is.MaxX, MaxY: r.MaxY})
	}
	return dst
}

// SubtractAll returns r minus every rectangle in subs, as a set of disjoint
// rectangles. The result may be empty when subs jointly cover r. Two
// ping-pong buffers carry the intermediate pieces, so a call allocates at
// most twice no matter how many rectangles are subtracted.
func (r Rect) SubtractAll(subs []Rect) []Rect {
	remain := []Rect{r}
	var next []Rect
	for _, s := range subs {
		if len(remain) == 0 {
			return nil
		}
		next = next[:0]
		for _, piece := range remain {
			next = piece.appendSubtract(next, s)
		}
		remain, next = next, remain
	}
	return remain
}
