package partition

import (
	"math/rand"
	"testing"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

func feats2D(pts ...geo.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64{p.X, p.Y}
	}
	return out
}

func idsUpTo(n int) []traj.ID {
	ids := make([]traj.ID, n)
	for i := range ids {
		ids[i] = traj.ID(i)
	}
	return ids
}

// checkEq7 verifies every group satisfies the ε_p radius bound.
func checkEq7(t *testing.T, res *Result, feats [][]float64, eps float64) {
	t.Helper()
	for g, members := range res.Groups {
		c := centroidOf(feats, members)
		if r := maxRadius(feats, members, c); r > eps+1e-9 {
			t.Fatalf("group %d radius %v > ε_p %v", g, r, eps)
		}
	}
}

// checkCover verifies the groups are a partition of all input indices.
func checkCover(t *testing.T, res *Result, n int) {
	t.Helper()
	seen := make([]bool, n)
	for _, members := range res.Groups {
		for _, i := range members {
			if seen[i] {
				t.Fatalf("index %d in two groups", i)
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d unassigned", i)
		}
	}
	if len(res.Groups) != len(res.Labels) || res.Q != len(res.Groups) {
		t.Fatalf("inconsistent result: %d groups, %d labels, Q=%d",
			len(res.Groups), len(res.Labels), res.Q)
	}
}

func TestModeNoneSingleGroup(t *testing.T) {
	p := New(Options{Mode: None})
	feats := feats2D(geo.Pt(0, 0), geo.Pt(100, 100))
	res := p.Step(idsUpTo(2), feats)
	if res.Q != 1 || len(res.Groups[0]) != 2 {
		t.Fatalf("None mode should give one group: %+v", res)
	}
}

func TestEmptyStep(t *testing.T) {
	p := New(Options{Mode: Spatial, EpsP: 1})
	res := p.Step(nil, nil)
	if res.Q != 0 {
		t.Fatalf("empty step Q = %d", res.Q)
	}
}

func TestInitialPartitioningSatisfiesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts []geo.Point
	for c := 0; c < 4; c++ {
		cx, cy := float64(c)*10, float64(c%2)*10
		for i := 0; i < 50; i++ {
			pts = append(pts, geo.Pt(cx+rng.NormFloat64()*0.3, cy+rng.NormFloat64()*0.3))
		}
	}
	feats := feats2D(pts...)
	p := New(Options{Mode: Spatial, EpsP: 2, Seed: 2})
	res := p.Step(idsUpTo(len(pts)), feats)
	checkCover(t, res, len(pts))
	checkEq7(t, res, feats, 2)
	if res.Q < 4 {
		t.Fatalf("four separated blobs need ≥4 partitions, got %d", res.Q)
	}
}

func TestCarryForwardKeepsPartitions(t *testing.T) {
	// Points that barely move must keep their partition labels.
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(0.1, 0), geo.Pt(10, 10), geo.Pt(10.1, 10)}
	p := New(Options{Mode: Spatial, EpsP: 1, Seed: 3})
	ids := idsUpTo(4)
	r1 := p.Step(ids, feats2D(pts...))
	if r1.Q != 2 {
		t.Fatalf("expected 2 partitions, got %d", r1.Q)
	}
	moved := []geo.Point{geo.Pt(0.05, 0.02), geo.Pt(0.15, 0.02), geo.Pt(10.05, 10.02), geo.Pt(10.15, 10.02)}
	r2 := p.Step(ids, feats2D(moved...))
	if r2.Q != 2 {
		t.Fatalf("carry-forward should keep 2 partitions, got %d", r2.Q)
	}
	// Labels must be identical to the previous step (reuse, not rebuild).
	for i, l := range r2.Labels {
		if l != r1.Labels[i] {
			t.Fatalf("labels changed: %v → %v", r1.Labels, r2.Labels)
		}
	}
	st := p.Stats()
	if st.CarriedOver != 4 {
		t.Fatalf("CarriedOver = %d, want 4", st.CarriedOver)
	}
}

func TestResplitOnViolation(t *testing.T) {
	// One group at t, then half the members jump far away: the partition
	// violates ε_p and must be re-split.
	p := New(Options{Mode: Spatial, EpsP: 1, Seed: 4})
	ids := idsUpTo(4)
	r1 := p.Step(ids, feats2D(geo.Pt(0, 0), geo.Pt(0.1, 0), geo.Pt(0.2, 0), geo.Pt(0.3, 0)))
	if r1.Q != 1 {
		t.Fatalf("expected 1 partition initially, got %d", r1.Q)
	}
	feats := feats2D(geo.Pt(0, 0), geo.Pt(0.1, 0), geo.Pt(50, 50), geo.Pt(50.1, 50))
	r2 := p.Step(ids, feats)
	checkCover(t, r2, 4)
	checkEq7(t, r2, feats, 1)
	if r2.Q != 2 {
		t.Fatalf("after the jump there should be 2 partitions, got %d", r2.Q)
	}
	if p.Stats().Resplits == 0 {
		t.Fatal("a re-split should have been recorded")
	}
}

func TestNewTrajectoriesJoinNearestPartition(t *testing.T) {
	p := New(Options{Mode: Spatial, EpsP: 1, Seed: 5})
	r1 := p.Step([]traj.ID{0, 1}, feats2D(geo.Pt(0, 0), geo.Pt(0.2, 0)))
	if r1.Q != 1 {
		t.Fatal("setup failed")
	}
	// Trajectory 2 appears right next to the existing partition.
	r2 := p.Step([]traj.ID{0, 1, 2}, feats2D(geo.Pt(0, 0), geo.Pt(0.2, 0), geo.Pt(0.1, 0.1)))
	if r2.Q != 1 {
		t.Fatalf("nearby new trajectory should join, Q = %d", r2.Q)
	}
	// Trajectory 3 appears far away → new partition.
	r3 := p.Step([]traj.ID{0, 1, 2, 3},
		feats2D(geo.Pt(0, 0), geo.Pt(0.2, 0), geo.Pt(0.1, 0.1), geo.Pt(99, 99)))
	if r3.Q != 2 {
		t.Fatalf("far new trajectory should open a partition, Q = %d", r3.Q)
	}
}

func TestMergeCloseParts(t *testing.T) {
	// Two partitions whose members converge: centroids within ε_p must
	// merge (at most once per step).
	p := New(Options{Mode: Spatial, EpsP: 2, Seed: 6})
	ids := idsUpTo(4)
	r1 := p.Step(ids, feats2D(geo.Pt(0, 0), geo.Pt(0.1, 0), geo.Pt(10, 0), geo.Pt(10.1, 0)))
	if r1.Q != 2 {
		t.Fatalf("setup: Q = %d", r1.Q)
	}
	// Converge: both clusters now near (5, 0).
	feats := feats2D(geo.Pt(4.8, 0), geo.Pt(4.9, 0), geo.Pt(5.1, 0), geo.Pt(5.2, 0))
	r2 := p.Step(ids, feats)
	if r2.Q != 1 {
		t.Fatalf("converged partitions should merge, Q = %d", r2.Q)
	}
	if p.Stats().Merges == 0 {
		t.Fatal("merge not recorded")
	}
	checkEq7(t, r2, feats, 2)
}

func TestDepartedTrajectoriesDropPartitions(t *testing.T) {
	p := New(Options{Mode: Spatial, EpsP: 1, Seed: 7})
	if r := p.Step(idsUpTo(4), feats2D(geo.Pt(0, 0), geo.Pt(0.1, 0), geo.Pt(50, 50), geo.Pt(50.1, 50))); r.Q != 2 {
		t.Fatalf("Q = %d", r.Q)
	}
	// Only the first two remain.
	if r := p.Step([]traj.ID{0, 1}, feats2D(geo.Pt(0, 0), geo.Pt(0.1, 0))); r.Q != 1 {
		t.Fatalf("Q = %d after departures", r.Q)
	}
}

func TestAutocorrModePartitionsOnFeatures(t *testing.T) {
	// Feed AR-coefficient features directly: two motion regimes.
	var feats [][]float64
	var ids []traj.ID
	for i := 0; i < 20; i++ {
		feats = append(feats, []float64{0.9, 0.05})
		ids = append(ids, traj.ID(i))
	}
	for i := 20; i < 40; i++ {
		feats = append(feats, []float64{-0.4, 0.3})
		ids = append(ids, traj.ID(i))
	}
	p := New(Options{Mode: Autocorr, EpsP: 0.2, Seed: 8})
	res := p.Step(ids, feats)
	checkCover(t, res, 40)
	if res.Q != 2 {
		t.Fatalf("two AR regimes should give 2 partitions, got %d", res.Q)
	}
}

func TestStatsElapsedAccumulates(t *testing.T) {
	p := New(Options{Mode: Spatial, EpsP: 1, Seed: 9})
	rng := rand.New(rand.NewSource(10))
	for step := 0; step < 5; step++ {
		pts := make([]geo.Point, 100)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*10, rng.Float64()*10)
		}
		p.Step(idsUpTo(100), feats2D(pts...))
	}
	st := p.Stats()
	if st.Steps != 5 {
		t.Fatalf("Steps = %d", st.Steps)
	}
	if st.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
}

// TestIncrementalCheaperThanScratch verifies the §3.2.2 claim: when
// consecutive timestamps are similar, the incremental step does much less
// clustering work than partitioning from scratch.
func TestIncrementalCheaperThanScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := make([]geo.Point, 300)
	for i := range base {
		base[i] = geo.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	drift := func(pts []geo.Point) []geo.Point {
		out := make([]geo.Point, len(pts))
		for i, p := range pts {
			out[i] = geo.Pt(p.X+rng.NormFloat64()*0.01, p.Y+rng.NormFloat64()*0.01)
		}
		return out
	}
	inc := New(Options{Mode: Spatial, EpsP: 3, Seed: 12})
	pts := base
	for step := 0; step < 10; step++ {
		inc.Step(idsUpTo(300), feats2D(pts...))
		pts = drift(pts)
	}
	incStats := inc.Stats()
	// From-scratch: a fresh partitioner per step sees every point as new.
	scratchNew := 0
	pts = base
	for step := 0; step < 10; step++ {
		s := New(Options{Mode: Spatial, EpsP: 3, Seed: 12})
		r := s.Step(idsUpTo(300), feats2D(pts...))
		scratchNew += r.Q
		pts = drift(pts)
	}
	// The incremental path creates partitions mostly in step 1; later
	// steps reuse them.
	if incStats.NewParts >= scratchNew {
		t.Fatalf("incremental created %d partitions vs %d from scratch — no reuse",
			incStats.NewParts, scratchNew)
	}
}

// TestPropertyBoundAlwaysHolds fuzzes drifting workloads and asserts the
// Equation 7 invariant after every step.
func TestPropertyBoundAlwaysHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		eps := 0.5 + rng.Float64()*3
		p := New(Options{Mode: Spatial, EpsP: eps, Seed: int64(trial)})
		n := 50 + rng.Intn(100)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*30, rng.Float64()*30)
		}
		for step := 0; step < 8; step++ {
			feats := feats2D(pts...)
			res := p.Step(idsUpTo(n), feats)
			checkCover(t, res, n)
			checkEq7(t, res, feats, eps)
			// Random drift plus occasional jumps.
			for i := range pts {
				pts[i] = geo.Pt(pts[i].X+rng.NormFloat64()*0.2, pts[i].Y+rng.NormFloat64()*0.2)
				if rng.Float64() < 0.02 {
					pts[i] = geo.Pt(rng.Float64()*30, rng.Float64()*30)
				}
			}
		}
	}
}
