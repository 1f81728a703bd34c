package exec

import (
	"context"
	"sync"

	"ppqtraj/internal/index"
	"ppqtraj/internal/obs"
)

// ScanPipe is the pooled per-scan pipeline — the operator chain every
// planned segment scan runs:
//
//	SegmentScan → CountRows → [Instrument op_scan] →
//	Verify → [Instrument op_verify]
//
// One pool fetch replaces the half-dozen operator, cursor, and scratch
// allocations a compositional executor would otherwise pay per scan.
// The Instrument stages appear only when a trace is attached; untraced
// plans pay nothing for them.
type ScanPipe struct {
	cur     index.RangeCursor
	scan    SegmentScan
	count   CountRowsOp
	verify  VerifyOp
	scanTr  InstrumentOp
	verifTr InstrumentOp
	out     Iterator
}

var scanPipePool = sync.Pool{New: func() any { return new(ScanPipe) }}

// OpenScanPipe composes a pooled pipeline over [from, to] of idx. Rows
// the index source emits accumulate into *rows, scan accounting into
// st; tr, when non-nil, adds per-operator time and row facts at the
// op_scan and op_verify boundaries.
func OpenScanPipe(ctx context.Context, idx *index.TPI, rec Reconstructor, cls Classifier, from, to int, st *index.ScanStats, rows *int64, tr *obs.Trace) *ScanPipe {
	p := scanPipePool.Get().(*ScanPipe)
	p.scan.init(ctx, &p.cur, idx, cls, from, to, st)
	p.count = CountRowsOp{in: &p.scan, n: rows}
	if tr == nil {
		p.verify.reset(ctx, &p.count, rec, cls)
		p.out = &p.verify
		return p
	}
	p.scanTr.reset(ctx, &p.count, tr, "op_scan", "op_scan_rows")
	p.verify.reset(ctx, &p.scanTr, rec, cls)
	p.verifTr.reset(ctx, &p.verify, tr, "op_verify", "op_verify_rows")
	p.out = &p.verifTr
	return p
}

// Iterator is the pipeline's downstream end, ready for a sink.
func (p *ScanPipe) Iterator() Iterator { return p.out }

// Err reports the pipeline's terminal error, if any.
func (p *ScanPipe) Err() error { return p.out.Err() }

// Close reports a traced pipe's operator time and rows if the stream did
// not end on its own, then returns the pipe's scratch to the pool. The
// pipeline must be drained or abandoned first: batches it returned are
// invalid after Close, as the scratch backing them may be handed to
// another scan.
func (p *ScanPipe) Close() {
	p.scanTr.report()
	p.verifTr.report()
	scanPipePool.Put(p)
}
