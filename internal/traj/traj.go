// Package traj defines the trajectory data model shared by every component
// of ppqtraj: time-stamped position sequences (Definition 3.1), datasets of
// such sequences, and the per-timestamp "column" view {T_i^t} the online
// quantizer consumes (Algorithm 1 processes all live trajectories one
// timestamp at a time).
//
// Time is modeled as discrete ticks t = 0, 1, 2, … matching the paper's
// per-timestamp processing; each trajectory occupies the contiguous tick
// range [Start, Start+len(Points)).
package traj

import (
	"fmt"
	"sort"

	"ppqtraj/internal/geo"
)

// ID identifies a trajectory within a Dataset.
type ID = uint32

// DedupSorted removes adjacent duplicates of an ascending ID slice in
// place and returns the shortened slice — the shared tail of every
// sorted-merge in the query stack.
func DedupSorted(ids []ID) []ID {
	if len(ids) < 2 {
		return ids
	}
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// Trajectory is a finite sequence of positions sampled at consecutive
// ticks starting at Start (Definition 3.1). Points[i] is the position at
// tick Start+i.
type Trajectory struct {
	ID     ID
	Start  int
	Points []geo.Point
}

// Len returns the number of samples.
func (t *Trajectory) Len() int { return len(t.Points) }

// End returns the first tick after the trajectory (exclusive bound).
func (t *Trajectory) End() int { return t.Start + len(t.Points) }

// ActiveAt reports whether the trajectory has a sample at tick k.
func (t *Trajectory) ActiveAt(k int) bool { return k >= t.Start && k < t.End() }

// At returns the position at tick k; ok is false when the trajectory is
// not active at k.
func (t *Trajectory) At(k int) (geo.Point, bool) {
	if !t.ActiveAt(k) {
		return geo.Point{}, false
	}
	return t.Points[k-t.Start], true
}

// Slice returns the sub-trajectory covering ticks [from, to) clipped to
// the trajectory's own range. The returned slice aliases the original
// points.
func (t *Trajectory) Slice(from, to int) []geo.Point {
	if from < t.Start {
		from = t.Start
	}
	if to > t.End() {
		to = t.End()
	}
	if from >= to {
		return nil
	}
	return t.Points[from-t.Start : to-t.Start]
}

// BoundingRect returns the minimum rectangle covering the trajectory.
func (t *Trajectory) BoundingRect() geo.Rect { return geo.BoundingRect(t.Points, 0) }

// Dataset is an immutable collection of trajectories indexed by ID, with
// fast per-timestamp access.
type Dataset struct {
	trajs  []*Trajectory // position = ID
	maxEnd int
}

// NewDataset builds a dataset, assigning IDs 0..n−1 in input order.
// Trajectories passed in keep their slice but their ID field is rewritten
// to their dataset position.
func NewDataset(trajs []*Trajectory) *Dataset {
	d := &Dataset{trajs: trajs}
	for i, tr := range trajs {
		tr.ID = ID(i)
		if tr.End() > d.maxEnd {
			d.maxEnd = tr.End()
		}
	}
	return d
}

// Len returns the number of trajectories.
func (d *Dataset) Len() int { return len(d.trajs) }

// MaxTick returns the first tick with no data (the stream length).
func (d *Dataset) MaxTick() int { return d.maxEnd }

// Lookup returns the trajectory with the given ID; ok is false when the
// dataset holds no such trajectory (Get panics instead).
func (d *Dataset) Lookup(id ID) (*Trajectory, bool) {
	if int(id) >= len(d.trajs) {
		return nil, false
	}
	return d.trajs[int(id)], true
}

// Get returns the trajectory with the given ID.
func (d *Dataset) Get(id ID) *Trajectory {
	if int(id) >= len(d.trajs) {
		panic(fmt.Sprintf("traj: id %d out of range (%d trajectories)", id, len(d.trajs)))
	}
	return d.trajs[int(id)]
}

// All returns the underlying trajectory slice (shared, do not mutate).
func (d *Dataset) All() []*Trajectory { return d.trajs }

// NumPoints returns the total number of samples across all trajectories.
func (d *Dataset) NumPoints() int {
	n := 0
	for _, tr := range d.trajs {
		n += tr.Len()
	}
	return n
}

// RawBytes returns the raw storage size of the dataset as the paper's
// compression-ratio baseline counts it: two float64 coordinates per point.
// (Timestamps are implicit under the fixed sampling interval.)
func (d *Dataset) RawBytes() int { return d.NumPoints() * 16 }

// BoundingRect returns the minimum rectangle covering every point.
// (Computed directly from the points: a single-point trajectory's bounding
// rect is degenerate and would be dropped by Rect.Union.)
func (d *Dataset) BoundingRect() geo.Rect {
	var all []geo.Point
	for _, tr := range d.trajs {
		all = append(all, tr.Points...)
	}
	return geo.BoundingRect(all, 0)
}

// Column is the set of trajectory points at a single tick: parallel ID and
// position slices, ordered by ID. It is the {T_i^t} of the paper.
type Column struct {
	Tick   int
	IDs    []ID
	Points []geo.Point
}

// Len returns the number of live trajectories in the column.
func (c *Column) Len() int { return len(c.IDs) }

// ColumnAt materializes the column for tick k.
func (d *Dataset) ColumnAt(k int) *Column {
	col := &Column{Tick: k}
	for _, tr := range d.trajs {
		if p, ok := tr.At(k); ok {
			col.IDs = append(col.IDs, tr.ID)
			col.Points = append(col.Points, p)
		}
	}
	return col
}

// Stream calls fn for every tick from 0 to MaxTick()−1 with that tick's
// column, skipping empty columns. It is the online ingestion loop:
// components consume columns strictly in time order, never the future.
func (d *Dataset) Stream(fn func(col *Column) error) error {
	for k := 0; k < d.maxEnd; k++ {
		col := d.ColumnAt(k)
		if col.Len() == 0 {
			continue
		}
		if err := fn(col); err != nil {
			return err
		}
	}
	return nil
}

// SortedIDs returns all IDs active at tick k in ascending order (helper
// for the brute-force query oracles in tests).
func (d *Dataset) SortedIDs(k int) []ID {
	var ids []ID
	for _, tr := range d.trajs {
		if tr.ActiveAt(k) {
			ids = append(ids, tr.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
