package obs

import (
	"context"
	"sync"
	"time"
)

// Trace accumulates a per-request stage breakdown: named durations that
// partition the request's wall time, plus integer "facts" (segments
// scanned, cells scanned, bytes decoded) recorded by the executors it
// passes through. It rides context.Context via WithTrace/TraceFrom; all
// methods are nil-safe so instrumented code needs no trace-enabled
// branch — an un-traced request pays one nil check per call site.
//
// Stage durations are meant to be contiguous: use Lap to carve the
// request into back-to-back segments so the stage sum approximates wall
// time by construction (the slow-query log's "≥90% accounted" contract).
type Trace struct {
	start time.Time

	mu     sync.Mutex
	last   time.Time
	order  []string
	stages map[string]time.Duration
	facts  map[string]int64
}

// NewTrace starts a trace now.
func NewTrace() *Trace {
	now := time.Now()
	return &Trace{start: now, last: now,
		stages: make(map[string]time.Duration), facts: make(map[string]int64)}
}

type traceKey struct{}

// WithTrace attaches tr to ctx.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace on ctx, nil when absent.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Lap attributes the time since the previous Lap (or trace start) to the
// named stage and restarts the lap clock: consecutive laps partition the
// request with no gaps. Repeated stage names accumulate.
func (t *Trace) Lap(stage string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.observeLocked(stage, now.Sub(t.last))
	t.last = now
	t.mu.Unlock()
}

// Observe adds d to the named stage without touching the lap clock — for
// sub-measurements timed explicitly (a WAL append inside an apply lap).
func (t *Trace) Observe(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.observeLocked(stage, d)
	t.mu.Unlock()
}

func (t *Trace) observeLocked(stage string, d time.Duration) {
	if _, ok := t.stages[stage]; !ok {
		t.order = append(t.order, stage)
	}
	t.stages[stage] += d
}

// Add accumulates an integer fact.
func (t *Trace) Add(fact string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.facts[fact] += n
	t.mu.Unlock()
}

// StageReport is one stage's accumulated duration in the report.
type StageReport struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// TraceReport is the JSON-facing breakdown: wall time, ordered stages,
// and executor facts. It appears inline in ?trace=1 responses and in
// slow-query log lines.
type TraceReport struct {
	WallMs   float64          `json:"wall_ms"`
	StagedMs float64          `json:"staged_ms"` // sum of stage durations
	Stages   []StageReport    `json:"stages"`
	Facts    map[string]int64 `json:"facts,omitempty"`
}

// Report snapshots the trace. Wall time is measured at the call.
func (t *Trace) Report() *TraceReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &TraceReport{WallMs: time.Since(t.start).Seconds() * 1e3}
	for _, name := range t.order {
		ms := t.stages[name].Seconds() * 1e3
		r.StagedMs += ms
		r.Stages = append(r.Stages, StageReport{Name: name, Ms: ms})
	}
	if len(t.facts) > 0 {
		r.Facts = make(map[string]int64, len(t.facts))
		for k, v := range t.facts {
			r.Facts[k] = v
		}
	}
	return r
}

// Stages returns the accumulated stage durations (for feeding per-stage
// histograms after the request completes).
func (t *Trace) Stages() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.stages))
	for k, v := range t.stages {
		out[k] = v
	}
	return out
}
