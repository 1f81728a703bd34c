package traj

import (
	"testing"

	"ppqtraj/internal/geo"
)

func mkTraj(start int, pts ...geo.Point) *Trajectory {
	return &Trajectory{Start: start, Points: pts}
}

func TestTrajectoryBasics(t *testing.T) {
	tr := mkTraj(5, geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(1, 1))
	if tr.Len() != 3 || tr.End() != 8 {
		t.Fatalf("Len=%d End=%d", tr.Len(), tr.End())
	}
	if !tr.ActiveAt(5) || !tr.ActiveAt(7) || tr.ActiveAt(4) || tr.ActiveAt(8) {
		t.Fatal("ActiveAt wrong")
	}
	if p, ok := tr.At(6); !ok || p != geo.Pt(1, 0) {
		t.Fatalf("At(6) = %v %v", p, ok)
	}
	if _, ok := tr.At(100); ok {
		t.Fatal("At out of range should fail")
	}
}

func TestTrajectorySlice(t *testing.T) {
	tr := mkTraj(10, geo.Pt(0, 0), geo.Pt(1, 1), geo.Pt(2, 2), geo.Pt(3, 3))
	got := tr.Slice(11, 13)
	if len(got) != 2 || got[0] != geo.Pt(1, 1) || got[1] != geo.Pt(2, 2) {
		t.Fatalf("Slice = %v", got)
	}
	// Clipping on both sides.
	if got := tr.Slice(0, 100); len(got) != 4 {
		t.Fatalf("clipped slice len = %d", len(got))
	}
	if got := tr.Slice(20, 30); got != nil {
		t.Fatalf("out-of-range slice = %v", got)
	}
	if got := tr.Slice(12, 11); got != nil {
		t.Fatal("inverted range should be nil")
	}
}

func TestTrajectoryPathAndBounds(t *testing.T) {
	tr := mkTraj(0, geo.Pt(0, 0), geo.Pt(3, 4), geo.Pt(3, 0))
	r := tr.BoundingRect()
	if r.MinX != 0 || r.MinY != 0 || r.MaxX != 3 || r.MaxY != 4 {
		t.Fatalf("BoundingRect = %v", r)
	}
}

func TestDatasetIDsAndAccess(t *testing.T) {
	d := NewDataset([]*Trajectory{
		mkTraj(0, geo.Pt(0, 0), geo.Pt(1, 1)),
		mkTraj(1, geo.Pt(5, 5)),
	})
	if d.Len() != 2 || d.MaxTick() != 2 {
		t.Fatalf("Len=%d MaxTick=%d", d.Len(), d.MaxTick())
	}
	if d.Get(0).ID != 0 || d.Get(1).ID != 1 {
		t.Fatal("IDs not assigned in input order")
	}
	if d.NumPoints() != 3 {
		t.Fatalf("NumPoints = %d", d.NumPoints())
	}
	if d.RawBytes() != 48 {
		t.Fatalf("RawBytes = %d, want 48", d.RawBytes())
	}
}

func TestDatasetGetPanicsOnBadID(t *testing.T) {
	d := NewDataset(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Get(3)
}

func TestColumnAt(t *testing.T) {
	d := NewDataset([]*Trajectory{
		mkTraj(0, geo.Pt(0, 0), geo.Pt(0, 1), geo.Pt(0, 2)),
		mkTraj(1, geo.Pt(9, 9), geo.Pt(8, 8)),
		mkTraj(5, geo.Pt(4, 4)),
	})
	col := d.ColumnAt(1)
	if col.Len() != 2 {
		t.Fatalf("column len = %d", col.Len())
	}
	if col.IDs[0] != 0 || col.Points[0] != geo.Pt(0, 1) {
		t.Fatalf("col[0] = %d %v", col.IDs[0], col.Points[0])
	}
	if col.IDs[1] != 1 || col.Points[1] != geo.Pt(9, 9) {
		t.Fatalf("col[1] = %d %v", col.IDs[1], col.Points[1])
	}
	if d.ColumnAt(4).Len() != 0 {
		t.Fatal("tick 4 should be empty")
	}
	if d.ColumnAt(5).Len() != 1 {
		t.Fatal("tick 5 should have the late trajectory")
	}
}

func TestStreamVisitsAllPointsInOrder(t *testing.T) {
	d := NewDataset([]*Trajectory{
		mkTraj(0, geo.Pt(0, 0), geo.Pt(0, 1)),
		mkTraj(3, geo.Pt(1, 0)),
	})
	var ticks []int
	var total int
	err := d.Stream(func(col *Column) error {
		ticks = append(ticks, col.Tick)
		total += col.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != d.NumPoints() {
		t.Fatalf("streamed %d points, want %d", total, d.NumPoints())
	}
	// Ticks strictly increasing, empty ticks skipped (tick 2 empty).
	want := []int{0, 1, 3}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestSortedIDs(t *testing.T) {
	d := NewDataset([]*Trajectory{
		mkTraj(0, geo.Pt(0, 0)),
		mkTraj(0, geo.Pt(1, 1), geo.Pt(2, 2)),
		mkTraj(1, geo.Pt(3, 3)),
	})
	ids := d.SortedIDs(0)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("SortedIDs(0) = %v", ids)
	}
	ids = d.SortedIDs(1)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("SortedIDs(1) = %v", ids)
	}
}

func TestDatasetBoundingRect(t *testing.T) {
	d := NewDataset([]*Trajectory{
		mkTraj(0, geo.Pt(-1, -1)),
		mkTraj(0, geo.Pt(2, 3)),
	})
	r := d.BoundingRect()
	if r.MinX != -1 || r.MinY != -1 || r.MaxX != 2 || r.MaxY != 3 {
		t.Fatalf("BoundingRect = %v", r)
	}
}
