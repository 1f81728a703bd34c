package ppqtraj

import (
	"runtime"
	"testing"

	"ppqtraj/internal/core"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/traj"
)

// allocDataset materializes SyntheticPorto(2000, 42) and its column stream,
// so column materialization stays outside the measured Append loop.
func allocDataset() (*traj.Dataset, []*traj.Column) {
	d := SyntheticPorto(2000, 42)
	var cols []*traj.Column
	_ = d.Stream(func(col *traj.Column) error {
		cols = append(cols, &traj.Column{
			Tick:   col.Tick,
			IDs:    append([]traj.ID(nil), col.IDs...),
			Points: append([]geo.Point(nil), col.Points...),
		})
		return nil
	})
	return d, cols
}

// TestAppendAllocationLean asserts the Builder's steady-state allocation
// budget: scratch buffers and arenas keep per-point allocations far below
// one — what remains is dominated by the summary's own retained storage
// (entries, reconstructions, codebook). A regression that reintroduces
// per-tick buffer churn trips this immediately.
func TestAppendAllocationLean(t *testing.T) {
	d, cols := allocDataset()
	o := core.DefaultOptions(partition.Spatial, 0.1)
	o.Seed = 7
	bl := core.NewBuilder(o)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, col := range cols {
		bl.Append(col)
	}
	runtime.ReadMemStats(&after)
	perPoint := float64(after.Mallocs-before.Mallocs) / float64(d.NumPoints())
	// Current steady state is ≈0.45 allocations/point; the bound leaves
	// headroom for runtime variation while still catching churn (the
	// pre-scratch pipeline sat above 2 allocations/point).
	if perPoint > 1.5 {
		t.Fatalf("Append allocates %.2f objects/point; want ≤ 1.5", perPoint)
	}
}
