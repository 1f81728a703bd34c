package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("t_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	// Same-name registration returns the same instrument.
	if r.Counter("t_ops_total", "ops") != c {
		t.Fatal("re-registration returned a different counter")
	}
	snap := r.Snapshot()
	if snap.Int("t_ops_total") != 5 || snap.Int("t_depth") != 5 {
		t.Fatalf("snapshot values = %v/%v", snap.Value("t_ops_total"), snap.Value("t_depth"))
	}
	if snap.Value("t_missing") != 0 {
		t.Fatal("missing metric should read 0")
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("t_x", "")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat_seconds", "latency", []float64{0.001, 0.01, 0.1, 1})
	// 100 observations uniform in (0, 0.1]: quantiles should land inside
	// the right buckets.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.001)
	}
	hs := r.Snapshot().Histogram("t_lat_seconds")
	if hs == nil {
		t.Fatal("histogram snapshot missing")
	}
	if hs.Count != 100 {
		t.Fatalf("count = %d, want 100", hs.Count)
	}
	wantSum := 0.0
	for i := 1; i <= 100; i++ {
		wantSum += float64(i) * 0.001
	}
	if math.Abs(hs.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", hs.Sum, wantSum)
	}
	// Buckets: ≤0.001 → 1 obs; ≤0.01 → 10; ≤0.1 → 100.
	if hs.Counts[0] != 1 || hs.Counts[1] != 9 || hs.Counts[2] != 90 || hs.Counts[3] != 0 || hs.Counts[4] != 0 {
		t.Fatalf("bucket counts = %v", hs.Counts)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_over", "", []float64{1, 2})
	h.Observe(5)
	h.Observe(10)
	hs := r.Snapshot().Histogram("t_over")
	if hs.Counts[2] != 2 {
		t.Fatalf("overflow bucket = %d, want 2", hs.Counts[2])
	}
}

func TestVecs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("t_req_total", "requests", "endpoint")
	cv.With("query").Add(3)
	cv.With("ingest").Add(7)
	hv := r.HistogramVec("t_stage_seconds", "stages", "stage", []float64{1})
	hv.With("plan").Observe(0.5)
	snap := r.Snapshot()
	if snap.Labeled("t_req_total", "query") != 3 || snap.Labeled("t_req_total", "ingest") != 7 {
		t.Fatalf("labeled values wrong: %+v", snap)
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`t_req_total{endpoint="query"} 3`,
		`t_req_total{endpoint="ingest"} 7`,
		`t_stage_seconds_bucket{stage="plan",le="1"} 1`,
		`t_stage_seconds_bucket{stage="plan",le="+Inf"} 1`,
		`t_stage_seconds_count{stage="plan"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSourceAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("t_fn", "fn gauge", func() float64 { return 42 })
	r.Source(func(emit func(Sample)) {
		emit(Sample{Name: "t_src_total", Help: "from source", Kind: KindCounter, Value: 9})
		emit(Sample{Name: "t_src_labeled", Kind: KindGauge, Label: "class", LabelValue: "a", Value: 1})
		emit(Sample{Name: "t_src_labeled", Kind: KindGauge, Label: "class", LabelValue: "b", Value: 2})
	})
	snap := r.Snapshot()
	if snap.Value("t_fn") != 42 || snap.Value("t_src_total") != 9 {
		t.Fatalf("snapshot: fn=%v src=%v", snap.Value("t_fn"), snap.Value("t_src_total"))
	}
	if snap.Labeled("t_src_labeled", "b") != 2 {
		t.Fatal("labeled source sample missing")
	}
}

func TestPrometheusExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_a_total", "help with\nnewline and \\ backslash").Add(2)
	h := r.Histogram("t_h_seconds", "hist", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP t_a_total help with\\nnewline and \\\\ backslash\n",
		"# TYPE t_a_total counter\n",
		"t_a_total 2\n",
		"# TYPE t_h_seconds histogram\n",
		`t_h_seconds_bucket{le="0.5"} 1`,
		`t_h_seconds_bucket{le="1"} 2`,
		`t_h_seconds_bucket{le="+Inf"} 3`,
		"t_h_seconds_sum 4\n",
		"t_h_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and end at _count.
	if strings.Index(out, `le="0.5"`) > strings.Index(out, `le="+Inf"`) {
		t.Fatal("buckets out of order")
	}
}

func TestTraceLapPartition(t *testing.T) {
	tr := NewTrace()
	time.Sleep(2 * time.Millisecond)
	tr.Lap("a")
	time.Sleep(2 * time.Millisecond)
	tr.Lap("b")
	tr.Add("cells", 5)
	tr.Add("cells", 2)
	rep := tr.Report()
	if len(rep.Stages) != 2 || rep.Stages[0].Name != "a" || rep.Stages[1].Name != "b" {
		t.Fatalf("stages = %+v", rep.Stages)
	}
	if rep.Facts["cells"] != 7 {
		t.Fatalf("facts = %+v", rep.Facts)
	}
	// Laps are contiguous, so the staged sum accounts for nearly all of
	// wall time (report overhead is the only gap).
	if rep.StagedMs < 0.90*rep.WallMs {
		t.Fatalf("staged %.3fms < 90%% of wall %.3fms", rep.StagedMs, rep.WallMs)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Lap("x")
	tr.Observe("y", time.Second)
	tr.Add("z", 1)
	if tr.Report() != nil || tr.Stages() != nil {
		t.Fatal("nil trace should report nil")
	}
	ctx := context.Background()
	if TraceFrom(ctx) != nil {
		t.Fatal("TraceFrom on bare ctx should be nil")
	}
	tr2 := NewTrace()
	if TraceFrom(WithTrace(ctx, tr2)) != tr2 {
		t.Fatal("trace did not round-trip through context")
	}
}

func TestLoggerLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, LevelInfo, FormatText)
	lg.Debug("hidden")
	lg.Info("shown", "k", 1)
	lg.Warn("warned", "err", context.Canceled)
	if out := buf.String(); strings.Contains(out, "hidden") ||
		!strings.Contains(out, "INFO shown k=1") || !strings.Contains(out, "WARN warned") {
		t.Fatalf("text output wrong:\n%s", out)
	}

	buf.Reset()
	jl := NewLogger(&buf, LevelDebug, FormatJSON)
	jl.Error("boom", "count", 3, "cause", context.DeadlineExceeded)
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("invalid JSON line %q: %v", buf.String(), err)
	}
	if obj["level"] != "error" || obj["msg"] != "boom" || obj["count"] != float64(3) ||
		obj["cause"] != context.DeadlineExceeded.Error() {
		t.Fatalf("json fields wrong: %v", obj)
	}

	// Nil and Discard loggers are safe no-ops.
	var nl *Logger
	nl.Info("nope")
	Discard().Error("nope")
	if nl.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
}

func TestParseHelpers(t *testing.T) {
	if l, ok := ParseLevel("WARN"); !ok || l != LevelWarn {
		t.Fatal("ParseLevel WARN")
	}
	if _, ok := ParseLevel("noise"); ok {
		t.Fatal("ParseLevel should reject unknown")
	}
	if f, ok := ParseFormat("json"); !ok || f != FormatJSON {
		t.Fatal("ParseFormat json")
	}
	if _, ok := ParseFormat("yaml"); ok {
		t.Fatal("ParseFormat should reject unknown")
	}
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	snap := r.Snapshot()
	if snap.Value("ppq_goroutines") < 1 {
		t.Fatalf("goroutines = %v", snap.Value("ppq_goroutines"))
	}
	if snap.Value("ppq_heap_alloc_bytes") <= 0 {
		t.Fatal("heap_alloc missing")
	}
	if snap.Histogram("ppq_gc_pause_seconds") == nil {
		t.Fatal("gc pause histogram missing")
	}
}

// TestRegistryConcurrency hammers every instrument type from many
// goroutines while snapshots run; meaningful under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_c_total", "")
	g := r.Gauge("t_g", "")
	h := r.Histogram("t_h", "", LatencyBuckets)
	cv := r.CounterVec("t_cv_total", "", "k")
	hv := r.HistogramVec("t_hv", "", "k", CountBuckets)
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%3))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-6)
				cv.With(lbl).Inc()
				hv.With(lbl).Observe(float64(i % 64))
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			_ = r.Snapshot().WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	snapWG.Wait()
	snap := r.Snapshot()
	if got := snap.Int("t_c_total"); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	hs := snap.Histogram("t_h")
	if hs.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", hs.Count, workers*iters)
	}
}

// BenchmarkHistogramObserve guards the registry's hot-path overhead; CI
// asserts the recorded ns/op stays under 50.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
