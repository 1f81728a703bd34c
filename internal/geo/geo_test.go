package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDegreeMeterConversion(t *testing.T) {
	// The paper's headline conversion: ε₁ = 0.001° ≈ 111 m.
	if got := DegreesToMeters(0.001); !almostEq(got, 111) {
		t.Fatalf("DegreesToMeters(0.001) = %v, want 111", got)
	}
	if got := MetersToDegrees(111); !almostEq(got, 0.001) {
		t.Fatalf("MetersToDegrees(111) = %v, want 0.001", got)
	}
}

func TestDegreeMeterRoundTrip(t *testing.T) {
	f := func(m float64) bool {
		m = math.Mod(m, 1e6)
		return math.Abs(DegreesToMeters(MetersToDegrees(m))-m) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := Pt(0, 0).Dist(Pt(3, 4)); !almostEq(got, 5) {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Pt(0, 0).Dist2(Pt(3, 4)); !almostEq(got, 25) {
		t.Errorf("Dist2 = %v, want 25", got)
	}
}

func TestPointIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	for _, p := range []Point{
		{math.NaN(), 0}, {0, math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		if p.IsFinite() {
			t.Errorf("%v reported finite", p)
		}
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); got != (Point{}) {
		t.Errorf("Centroid(nil) = %v", got)
	}
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := Centroid(pts); got != Pt(1, 1) {
		t.Errorf("Centroid = %v, want (1,1)", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(2, 3, 0, 1) // corners given out of order
	if r != (Rect{MinX: 0, MinY: 1, MaxX: 2, MaxY: 3}) {
		t.Fatalf("NewRect normalization failed: %v", r)
	}
	if r.Empty() {
		t.Error("non-degenerate rect reported empty")
	}
	if !almostEq(r.Width(), 2) || !almostEq(r.Height(), 2) || !almostEq(r.Area(), 4) {
		t.Errorf("dims: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if r.Center() != Pt(1, 2) {
		t.Errorf("Center = %v", r.Center())
	}
	if (Rect{}).Area() != 0 {
		t.Error("empty rect area != 0")
	}
}

func TestRectContainsHalfOpen(t *testing.T) {
	r := NewRect(0, 0, 1, 1)
	if !r.Contains(Pt(0, 0)) {
		t.Error("min corner must be contained")
	}
	if r.Contains(Pt(1, 1)) {
		t.Error("max corner must not be contained (half-open)")
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 2, 2)
	b := NewRect(1, 1, 3, 3)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("rects should intersect")
	}
	got := a.Intersect(b)
	if got != NewRect(1, 1, 2, 2) {
		t.Errorf("Intersect = %v", got)
	}
	c := NewRect(5, 5, 6, 6)
	if a.Intersects(c) {
		t.Error("disjoint rects reported intersecting")
	}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersection should be empty")
	}
	// Touching edges share no interior.
	d := NewRect(2, 0, 4, 2)
	if a.Intersects(d) {
		t.Error("edge-touching rects share no interior")
	}
}

func TestRectUnionExpand(t *testing.T) {
	a := NewRect(0, 0, 1, 1)
	b := NewRect(2, 2, 3, 3)
	if got := a.Union(b); got != NewRect(0, 0, 3, 3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Union(Rect{}); got != a {
		t.Errorf("Union with empty = %v", got)
	}
	if got := (Rect{}).Union(b); got != b {
		t.Errorf("empty Union = %v", got)
	}
	if got := a.Expand(1); got != NewRect(-1, -1, 2, 2) {
		t.Errorf("Expand = %v", got)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)}
	r := BoundingRect(pts, 0)
	want := Rect{MinX: -2, MinY: -1, MaxX: 4, MaxY: 5}
	if r != want {
		t.Fatalf("BoundingRect = %v, want %v", r, want)
	}
	for _, p := range pts {
		if p.X < r.MinX || p.X > r.MaxX || p.Y < r.MinY || p.Y > r.MaxY {
			t.Errorf("point %v outside its bounding rect", p)
		}
	}
	if !BoundingRect(nil, 0).Empty() {
		t.Error("bounding rect of no points should be empty")
	}
	// With eps inflation every point is inside under the half-open rule.
	r = BoundingRect(pts, 1e-9)
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("point %v outside inflated bounding rect", p)
		}
	}
}

func TestSubtractDisjoint(t *testing.T) {
	r := NewRect(0, 0, 1, 1)
	s := NewRect(5, 5, 6, 6)
	got := r.Subtract(s)
	if len(got) != 1 || got[0] != r {
		t.Fatalf("Subtract with disjoint rect = %v", got)
	}
}

func TestSubtractFullyCovered(t *testing.T) {
	r := NewRect(0, 0, 1, 1)
	s := NewRect(-1, -1, 2, 2)
	if got := r.Subtract(s); len(got) != 0 {
		t.Fatalf("fully covered subtract = %v, want empty", got)
	}
}

func TestSubtractCorner(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	s := NewRect(1, 1, 3, 3) // overlaps the top-right corner
	pieces := r.Subtract(s)
	var area float64
	for _, p := range pieces {
		area += p.Area()
	}
	if !almostEq(area, 3) {
		t.Fatalf("remaining area = %v, want 3 (pieces %v)", area, pieces)
	}
	assertDisjoint(t, pieces)
}

func TestSubtractHole(t *testing.T) {
	r := NewRect(0, 0, 3, 3)
	s := NewRect(1, 1, 2, 2) // strictly interior hole
	pieces := r.Subtract(s)
	var area float64
	for _, p := range pieces {
		area += p.Area()
	}
	if !almostEq(area, 8) {
		t.Fatalf("remaining area = %v, want 8", area)
	}
	assertDisjoint(t, pieces)
	// The hole must not be covered by any piece.
	for _, p := range pieces {
		if p.Intersects(s) {
			t.Errorf("piece %v overlaps subtracted region", p)
		}
	}
}

func assertDisjoint(t *testing.T, rects []Rect) {
	t.Helper()
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if rects[i].Intersects(rects[j]) {
				t.Errorf("pieces %v and %v overlap", rects[i], rects[j])
			}
		}
	}
}

// TestSubtractProperty checks, with random rectangles, that subtraction
// preserves area and produces disjoint pieces that avoid the subtrahend.
func TestSubtractProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		r := NewRect(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		s := NewRect(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		pieces := r.Subtract(s)
		assertDisjoint(t, pieces)
		var area float64
		for _, p := range pieces {
			area += p.Area()
			if p.Intersects(s) {
				t.Fatalf("piece %v intersects subtrahend %v", p, s)
			}
			if p.Intersect(r) != p {
				t.Fatalf("piece %v escapes minuend %v", p, r)
			}
		}
		want := r.Area() - r.Intersect(s).Area()
		if math.Abs(area-want) > 1e-9 {
			t.Fatalf("area %v, want %v (r=%v s=%v)", area, want, r, s)
		}
	}
}

func TestSubtractAll(t *testing.T) {
	r := NewRect(0, 0, 4, 4)
	subs := []Rect{NewRect(0, 0, 2, 2), NewRect(2, 2, 4, 4)}
	pieces := r.SubtractAll(subs)
	var area float64
	for _, p := range pieces {
		area += p.Area()
	}
	if !almostEq(area, 8) {
		t.Fatalf("area = %v, want 8", area)
	}
	assertDisjoint(t, pieces)
	// Full coverage leaves nothing.
	if got := r.SubtractAll([]Rect{r}); len(got) != 0 {
		t.Fatalf("SubtractAll self = %v", got)
	}
}

func TestSubtractAllProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		r := NewRect(0, 0, 10, 10)
		var subs []Rect
		for i := 0; i < 4; i++ {
			x, y := rng.Float64()*10, rng.Float64()*10
			subs = append(subs, NewRect(x, y, x+rng.Float64()*5, y+rng.Float64()*5))
		}
		pieces := r.SubtractAll(subs)
		assertDisjoint(t, pieces)
		for _, p := range pieces {
			for _, s := range subs {
				if p.Intersects(s) {
					t.Fatalf("piece %v intersects %v", p, s)
				}
			}
		}
		// Monte-Carlo containment check: every random point of r is either
		// in some subtrahend or in exactly one piece.
		for probe := 0; probe < 50; probe++ {
			pt := Pt(rng.Float64()*10, rng.Float64()*10)
			inSub := false
			for _, s := range subs {
				if s.Contains(pt) {
					inSub = true
					break
				}
			}
			n := 0
			for _, p := range pieces {
				if p.Contains(pt) {
					n++
				}
			}
			if inSub && n != 0 {
				t.Fatalf("point %v in subtrahend but covered by %d pieces", pt, n)
			}
			if !inSub && n != 1 {
				t.Fatalf("point %v covered by %d pieces, want 1", pt, n)
			}
		}
	}
}
