package main

import (
	"fmt"
	"math"
	"slices"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
)

// oracle checks answers against brute force over the raw fleet, outside
// every timed phase. It holds the paper's contract:
//
//   - an exact answer equals the brute-force ID set;
//   - an approximate answer contains it (recall 1), and holds nothing
//     farther from the query region than the local-search margin plus
//     the reconstruction bound allow;
//   - every reconstructed point is within the Lemma 3 bound of the raw
//     point (a hot-tail point is the raw point).
//
// Every check is one attempted operation; every miss is one failed
// operation, which is what fail_ratio counts.
type oracle struct {
	data  *traj.Dataset
	gc    float64
	bound float64 // the summary's deviation bound (Lemma 3: (√2/2)·g_s)

	attempted int
	failed    int
	firstErr  error

	recallMin    float64 // min over approximate answers with a non-empty truth
	precisionSum float64 // over approximate answers with a non-empty answer
	precisionN   int
}

func newOracle(fx *fixture, repo *serve.Repository) *oracle {
	o := &oracle{data: fx.data, gc: fx.gc, recallMin: 1}
	for _, s := range repo.Segments() {
		o.bound = max(o.bound, s.Sum.MaxDeviation())
	}
	return o
}

// note counts one checked operation.
func (o *oracle) note(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

func (o *oracle) precisionMean() float64 {
	if o.precisionN == 0 {
		return 1
	}
	return o.precisionSum / float64(o.precisionN)
}

// slack absorbs floating-point disagreement at region edges; it is far
// below GPS noise.
const slack = 1e-9

// bruteRegion returns the trajectories with a raw point inside rect at
// some tick of [from, to] (exact), and those with one within reach of it
// (near) — the widest set an approximate answer may contain.
func (o *oracle) bruteRegion(rect geo.Rect, from, to int, reach float64) (exact, near []traj.ID) {
	for _, tr := range o.data.All() {
		in, nearby := false, false
		for _, p := range tr.Slice(from, to+1) {
			if rect.Contains(p) {
				in, nearby = true, true
				break
			}
			if !nearby && p.DistToRect(rect) <= reach {
				nearby = true
			}
		}
		if in {
			exact = append(exact, tr.ID)
		}
		if nearby {
			near = append(near, tr.ID)
		}
	}
	return exact, near
}

// subset reports whether every ID of a is in b (both ascending).
func subset(a, b []traj.ID) bool {
	j := 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j == len(b) || b[j] != id {
			return false
		}
	}
	return true
}

func overlap(a, b []traj.ID) int {
	n, j := 0, 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j < len(b) && b[j] == id {
			n++
		}
	}
	return n
}

// region checks one ID-set answer for rect over [from, to].
func (o *oracle) region(what string, rect geo.Rect, from, to int, exact bool, got []traj.ID) error {
	if !slices.IsSorted(got) {
		return fmt.Errorf("%s: answer is not ascending", what)
	}
	// An approximate match has its reconstruction within the margin of the
	// region and its raw point within the bound of the reconstruction; the
	// margin is the bound.
	truth, near := o.bruteRegion(rect, from, to, 2*o.bound+slack)
	if exact {
		if !slices.Equal(got, truth) {
			return fmt.Errorf("%s exact: got %d ids, brute force has %d", what, len(got), len(truth))
		}
		return nil
	}
	hit := overlap(truth, got)
	if len(truth) > 0 {
		o.recallMin = min(o.recallMin, float64(hit)/float64(len(truth)))
	}
	if len(got) > 0 {
		o.precisionSum += float64(hit) / float64(len(got))
		o.precisionN++
	}
	if hit != len(truth) {
		return fmt.Errorf("%s approximate: misses %d of %d true ids (recall must be 1)", what, len(truth)-hit, len(truth))
	}
	if !subset(got, near) {
		return fmt.Errorf("%s approximate: holds ids farther than margin+bound from the region", what)
	}
	return nil
}

// window checks a /v1/window answer.
func (o *oracle) window(req serve.WindowRequest, got []traj.ID) error {
	return o.region("window", req.Rect, req.From, req.To, req.Exact, got)
}

// queryCell is the repository's STRQ region for p: the g_c cell of the
// origin-anchored grid (serve.Repository.QueryCell, restated so the
// oracle does not ask the program under test what the question was).
func (o *oracle) queryCell(p geo.Point) geo.Rect {
	x := math.Floor(p.X/o.gc) * o.gc
	y := math.Floor(p.Y/o.gc) * o.gc
	return geo.Rect{MinX: x, MinY: y, MaxX: x + o.gc, MaxY: y + o.gc}
}

// probe checks one STRQ answer of a batch, paths included.
func (o *oracle) probe(req serve.STRQRequest, ans *serve.STRQAnswer) error {
	if ans.Err != "" {
		return fmt.Errorf("probe: %s", ans.Err)
	}
	if err := o.region("probe", o.queryCell(req.P), req.Tick, req.Tick, req.Exact, ans.IDs); err != nil {
		return err
	}
	if req.PathLen == 0 {
		return nil
	}
	for _, id := range ans.IDs {
		path, ok := ans.Paths[id]
		if !ok {
			return fmt.Errorf("probe: no path for matched id %d", id)
		}
		if err := o.path(id, req.Tick, req.PathLen, path); err != nil {
			return err
		}
	}
	return nil
}

// path checks a reconstructed sub-trajectory asked for as [from, from+l):
// it must cover exactly the ticks the trajectory has there, each point
// within the bound of the raw one.
func (o *oracle) path(id traj.ID, from, l int, got serve.Path) error {
	tr, ok := o.data.Lookup(id)
	if !ok {
		return fmt.Errorf("path: id %d is not in the fleet", id)
	}
	want := tr.Slice(from, from+l)
	if len(want) == 0 {
		if len(got.Points) != 0 {
			return fmt.Errorf("path %d: %d points where the trajectory has none", id, len(got.Points))
		}
		return nil
	}
	if start := max(from, tr.Start); got.Start != start || len(got.Points) != len(want) {
		return fmt.Errorf("path %d: got %d points from tick %d, want %d from %d",
			id, len(got.Points), got.Start, len(want), start)
	}
	for i, p := range got.Points {
		if d := p.Dist(want[i]); d > o.bound+slack {
			return fmt.Errorf("path %d tick %d: reconstruction is %.3g° from the raw point, bound %.3g°",
				id, got.Start+i, d, o.bound)
		}
	}
	return nil
}

// check verifies one op's decoded HTTP answer; each window or probe is
// one attempted operation.
func (o *oracle) check(op *op, a *answer) {
	if op.queries == nil {
		o.note(o.window(op.win, a.win.IDs))
		return
	}
	for i := range op.queries {
		o.note(o.probe(op.queries[i], &a.batch.Answers[i]))
	}
}

// deviation is what checkReadable measured over every point it read.
type deviation struct {
	maxOverBound float64 // worst reconstruction error ÷ the bound
	maeMeters    float64
}

// readable reads every trajectory back in full through Repository.Path —
// after a reopen this is "every acked (tick, id) is readable" — and
// checks each point against the bound. One trajectory is one attempted
// operation. ticks is the exclusive end of the acked tick range.
func (o *oracle) readable(repo *serve.Repository, ticks int) deviation {
	var dev deviation
	var sum float64
	n := 0
	for _, tr := range o.data.All() {
		l := min(tr.End(), ticks) - tr.Start
		if l <= 0 {
			continue
		}
		got := repo.Path(background, tr.ID, tr.Start, l)
		o.note(o.path(tr.ID, tr.Start, l, got))
		for i, p := range got.Points {
			if i >= l || got.Start != tr.Start {
				break
			}
			d := p.Dist(tr.Points[i])
			sum += d
			n++
			dev.maxOverBound = max(dev.maxOverBound, d/o.bound)
		}
	}
	if n > 0 {
		dev.maeMeters = geo.DegreesToMeters(sum / float64(n))
	}
	return dev
}
