package exec

import (
	"context"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/traj"
)

// Reconstructor is the summary-side contract the margin filter checks
// candidates against — the one method of query.Source the executor
// needs (satisfied by core.Summary and every query.Source).
type Reconstructor interface {
	ReconstructedPoint(id traj.ID, tick int) (geo.Point, bool)
}

// VerifyOp filters Check batches by the per-trajectory
// reconstruction-distance test (the local-search filter); Sure batches
// pass through untouched. Its output rows are exactly the per-tick STRQ
// candidate set, before sorting.
type VerifyOp struct {
	ctx  context.Context
	in   Iterator
	rec  Reconstructor
	rect geo.Rect
	m    float64
	err  error

	steps int // rows filtered since the last ctx check
	out   Batch
	ticks []int
	ids   [][]traj.ID
	flat  []traj.ID // backing for the filtered per-tick lists
}

// reset aims the operator at in, keeping its batch scratch — the pooled-
// pipeline path.
func (v *VerifyOp) reset(ctx context.Context, in Iterator, rec Reconstructor, cls Classifier) {
	v.ctx, v.in, v.rec, v.rect, v.m = ctx, in, rec, cls.Rect, cls.Margin
	v.err, v.steps = nil, 0
}

// Next pulls batches until one survives the filter.
func (v *VerifyOp) Next() (*Batch, bool) {
	if v.err != nil {
		return nil, false
	}
	for {
		if v.err = v.ctx.Err(); v.err != nil {
			return nil, false
		}
		b, ok := v.in.Next()
		if !ok {
			v.err = v.in.Err()
			return nil, false
		}
		if b.Sure {
			return b, true
		}
		v.ticks = v.ticks[:0]
		v.ids = v.ids[:0]
		v.flat = v.flat[:0]
		for i, tick := range b.Ticks {
			st := len(v.flat)
			for _, id := range b.IDs[i] {
				if v.steps++; v.steps%ctxCheckEvery == 0 {
					if v.err = v.ctx.Err(); v.err != nil {
						return nil, false
					}
				}
				rp, ok := v.rec.ReconstructedPoint(id, tick)
				if !ok {
					continue
				}
				if rp.DistToRect(v.rect) <= v.m+1e-12 {
					v.flat = append(v.flat, id)
				}
			}
			if len(v.flat) > st {
				v.ticks = append(v.ticks, tick)
				v.ids = append(v.ids, v.flat[st:len(v.flat):len(v.flat)])
			}
		}
		if len(v.ticks) > 0 {
			v.out = Batch{Ticks: v.ticks, IDs: v.ids}
			return &v.out, true
		}
	}
}

func (v *VerifyOp) Err() error { return v.err }

// CountRowsOp counts rows flowing through an operator boundary into an
// external counter — the serving layer's per-operator metrics hook.
// Unlike InstrumentOp it is unconditional and timer-free, so it is cheap
// enough to leave on the untraced hot path.
type CountRowsOp struct {
	in Iterator
	n  *int64
}

// Next delegates one pull, counting the emitted batch.
func (c *CountRowsOp) Next() (*Batch, bool) {
	b, ok := c.in.Next()
	if ok {
		*c.n += int64(b.Rows())
	}
	return b, ok
}

func (c *CountRowsOp) Err() error { return c.in.Err() }

// InstrumentOp reports an operator's pull time and emitted rows into an
// obs.Trace: stage <name> accumulates time spent inside this operator's
// subtree, fact <name>_rows counts rows it emitted. Used at operator
// boundaries so ?trace=1 reports per-operator time. Time and rows add up
// in the operator's own fields and reach the trace once per scan — at end
// of stream, on error or cancellation, or from ScanPipe.Close for an
// abandoned pipe — so a pull takes no trace lock and allocates nothing.
type InstrumentOp struct {
	ctx      context.Context
	in       Iterator
	tr       *obs.Trace // nil once reported
	name     string
	rowsName string
	err      error
	d        time.Duration
	rows     int64
}

// reset aims the operator at a new stream — the pooled-pipeline path,
// which passes a constant rowsName so re-arming allocates nothing.
func (o *InstrumentOp) reset(ctx context.Context, in Iterator, tr *obs.Trace, name, rowsName string) {
	*o = InstrumentOp{ctx: ctx, in: in, tr: tr, name: name, rowsName: rowsName}
}

// Next times one pull of the wrapped subtree.
func (o *InstrumentOp) Next() (*Batch, bool) {
	if o.err = o.ctx.Err(); o.err != nil {
		o.report()
		return nil, false
	}
	t0 := time.Now()
	b, ok := o.in.Next()
	o.d += time.Since(t0)
	if !ok {
		o.err = o.in.Err()
		o.report()
		return nil, false
	}
	o.rows += int64(b.Rows())
	return b, true
}

func (o *InstrumentOp) Err() error { return o.err }

// report hands the accumulated time and rows to the trace, once.
func (o *InstrumentOp) report() {
	if o.tr == nil {
		return
	}
	o.tr.Observe(o.name, o.d)
	o.tr.Add(o.rowsName, o.rows)
	o.tr = nil
}
