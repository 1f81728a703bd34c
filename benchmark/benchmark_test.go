package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
)

// The tests run every workload at -quick size; the whole file stays
// under the 30 s the issue allows the smoke test.

func testScratch(t *testing.T) *scratch {
	t.Helper()
	runtime.GOMAXPROCS(goMaxProcs)
	tmp, err := newScratch()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tmp.remove)
	return tmp
}

func quickWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.quick()
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestManifestMatchesCatalog keeps BENCHMARK.json and spec.go one
// definition, and holds both to the driver's limits.
func TestManifestMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec.go says %d", m.RunSeconds, runSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	if strings.Join(m.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command %v", m.Command)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec.go has %d", len(m.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the driver's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, spec.go has {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
		use(w.Name)
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec.go has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != d {
				t.Errorf("%s %d is %+v, spec.go has %+v", kind, i, got[i], d)
			}
			use(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("unit %q of %s breaks the driver's rule", d.Unit, d.Name)
			}
			if d.Better != lower && d.Better != higher {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s: bound %v", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("catalog sizes %d/%d/%d are outside the driver's limits", len(endToEnd), len(perLayer), len(workloads))
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != lower {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", d)
	}
	for _, d := range endToEnd[1:] {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

// TestDeterminism: the same seed gives identical inputs and, in the
// single-client traced pass, identical work counts; another seed changes
// all of them.
func TestDeterminism(t *testing.T) {
	tmp := testScratch(t)
	w := quickWorkload(t, "window-dense-cold")
	digest := func(seed int64) traceDigest {
		res, dig, err := traced(seed, w, 0.1, filepath.Join(tmp.dir("spans"), "spans.jsonl"), tmp)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("seed %d: %d of %d operations failed: %v", seed, res.failed, res.attempted, res.firstErr)
		}
		return *dig
	}
	a, b, c := digest(5), digest(5), digest(6)
	if a != b {
		t.Errorf("seed 5 twice:\n %+v\n %+v", a, b)
	}
	if a.CellsScanned == 0 || a.IDsDecoded == 0 || a.CodebookWords == 0 {
		t.Errorf("a counter the test pins is zero: %+v", a)
	}
	if a.Data == c.Data || a.Ops == c.Ops || a.CellsScanned == c.CellsScanned ||
		a.IDsDecoded == c.IDsDecoded || a.CodebookWords == c.CodebookWords {
		t.Errorf("seed 6 left something of seed 5 unchanged:\n %+v\n %+v", a, c)
	}
}

// TestProgramSeesOnlyGeneratedInputs: the repository is configured from
// the workload's parameters and the generated fleet alone. repoOptions
// takes no seed; this pins that no option, the directory included, names
// the workload either.
func TestProgramSeesOnlyGeneratedInputs(t *testing.T) {
	tmp := testScratch(t)
	for _, w := range workloads {
		fx := &fixture{data: traj.NewDataset(nil), gc: 1}
		opts := repoOptions(w, fx, tmp.dir("repo"), 0)
		opts.Raw, opts.Log = nil, nil
		text, err := json.Marshal(opts)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(text, []byte(w.Name)) {
			t.Errorf("%s: repository options carry the workload name: %s", w.Name, text)
		}
	}
}

// TestOracleCountsPlantedWrongAnswers: each kind of wrong answer the
// oracle exists to catch is counted as a failed operation, and the true
// answers are not.
func TestOracleCountsPlantedWrongAnswers(t *testing.T) {
	tmp := testScratch(t)
	w := quickWorkload(t, "point-path")
	b, err := setUp(9, w, tmp.dir("repo"), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := b.env
	defer e.close()
	fx := e.fx
	c := e.caller()

	// A window that certainly has matches: around a whole trajectory.
	tr := fx.data.Get(0)
	win := serve.WindowRequest{Rect: tr.BoundingRect().Expand(5 * fx.gc), From: tr.Start, To: tr.End() - 1}
	ask := func(exact bool) []traj.ID {
		win.Exact = exact
		a, err := c.do(&op{win: win})
		if err != nil {
			t.Fatal(err)
		}
		return a.win.IDs
	}
	far := traj.ID(0)
	for _, cand := range fx.data.All() { // a trajectory that never comes near the window
		if !cand.BoundingRect().Expand(10 * fx.gc).Intersects(win.Rect) {
			far = cand.ID
			break
		}
	}
	if far == 0 {
		t.Skip("no trajectory is far from trajectory 0 in this fixture")
	}
	planted := func(ids []traj.ID, extra traj.ID) []traj.ID {
		out := append(append([]traj.ID(nil), ids...), extra)
		return sortDedup(out)
	}
	without := func(ids []traj.ID, drop traj.ID) []traj.ID {
		var out []traj.ID
		for _, id := range ids {
			if id != drop {
				out = append(out, id)
			}
		}
		return out
	}
	approx, exact := ask(false), ask(true)
	if len(exact) < 2 {
		t.Fatalf("the window around trajectory 0 holds %d trajectories; the test needs two", len(exact))
	}
	cases := []struct {
		name  string
		exact bool
		ids   []traj.ID
		wrong bool
	}{
		{"true approximate answer", false, approx, false},
		{"true exact answer", true, exact, false},
		{"approximate answer missing a resident", false, without(approx, exact[0]), true},
		{"approximate answer with a far-away id", false, planted(approx, far), true},
		{"exact answer missing a resident", true, without(exact, exact[0]), true},
		{"exact answer with an extra id", true, planted(exact, far), true},
		{"unsorted answer", false, append([]traj.ID{approx[len(approx)-1]}, approx...), true},
	}
	for _, tc := range cases {
		or := newOracle(fx, e.repo)
		win.Exact = tc.exact
		or.check(&op{win: win}, &answer{win: serve.WindowResult{IDs: tc.ids}})
		if or.attempted != 1 || (or.failed == 1) != tc.wrong {
			t.Errorf("%s: attempted %d failed %d (%v)", tc.name, or.attempted, or.failed, or.firstErr)
		}
	}

	// A reconstructed path one bound too far from the truth.
	or := newOracle(fx, e.repo)
	got := e.repo.Path(background, tr.ID, tr.Start, 8)
	or.note(or.path(tr.ID, tr.Start, 8, got))
	if or.failed != 0 {
		t.Fatalf("the true path fails: %v", or.firstErr)
	}
	got.Points = append([]geo.Point(nil), got.Points...)
	got.Points[3].X += 3 * or.bound
	or.note(or.path(tr.ID, tr.Start, 8, got))
	if or.failed != 1 {
		t.Error("a path point three bounds off was not counted")
	}

	// And the count reaches the result line: a run whose oracle failed is
	// not correct.
	if line := (&resultLine{Correct: or.failed == 0, Attempted: or.attempted, Failed: or.failed}); line.Correct {
		t.Error("a failed check left the run correct")
	}
}

// TestQuickSmoke drives what the command drives: every workload untraced
// and traced at -quick size, the oracle, the span writer, -out and
// -compare.
func TestQuickSmoke(t *testing.T) {
	tmp := testScratch(t)
	out := filepath.Join(tmp.dir("results"), "quick.json")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w = w.quick()
		for _, tracedRun := range []bool{false, true} {
			spans := filepath.Join(tmp.dir("spans"), "spans.jsonl")
			line, err := runOne(3, w, 0.5, tracedRun, spans, tmp)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, tracedRun, err)
			}
			if !line.Correct || line.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.Name, tracedRun, line.Failed, line.Attempted)
			}
			defs := endToEnd
			if tracedRun {
				defs = perLayer
				if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
					t.Errorf("%s: no spans written: %v", w.Name, err)
				}
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, tracedRun, len(line.Metrics), len(defs))
			}
			if !tracedRun {
				for name, m := range line.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s is %v; the driver needs it above 0", w.Name, name, m.Value)
					}
				}
			}
			// Quick runs are stored marked, and -compare leaves them out.
			if err := appendRun(out, storedRun{Workload: w.Name, Seed: 3, Traced: tracedRun, resultLine: *line}); err != nil {
				t.Fatal(err)
			}
		}
	}

	rs, err := readResultSet(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Runs) != 2*len(workloads) {
		t.Fatalf("result set holds %d runs", len(rs.Runs))
	}
	var report bytes.Buffer
	if !compareSets(rs, rs, &report) {
		t.Errorf("a result set regressed against itself:\n%s", report.String())
	}
	// Plant a regression: one workload's p50 doubles.
	worse := &resultSet{}
	for _, r := range rs.Runs {
		if r.Workload == "point-path" && !r.Traced {
			m := map[string]measurement{}
			for k, v := range r.Metrics {
				m[k] = v
			}
			p := m["query_p50_ms"]
			p.Value *= 2
			m["query_p50_ms"] = p
			r.Metrics = m
		}
		worse.Runs = append(worse.Runs, r)
	}
	report.Reset()
	if compareSets(rs, worse, &report) || !strings.Contains(report.String(), regressed) {
		t.Errorf("a doubled p50 passed -compare:\n%s", report.String())
	}
	// And a failure: same metrics, one failed operation.
	failing := &resultSet{Runs: append([]storedRun(nil), rs.Runs...)}
	failing.Runs[0].Failed++
	if compareSets(rs, failing, &report) {
		t.Error("a higher fail_ratio passed -compare")
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "latency", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "rate", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5}
	noisy := []float64{100, 130, 80, 120, 90}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lat, steady, []float64{100.4}, unchanged},
		{lat, steady, []float64{115}, regressed},
		{lat, steady, []float64{80}, improved},
		{lat, steady, []float64{95}, unchanged},
		{rate, steady, []float64{85}, regressed},
		{rate, steady, []float64{120}, improved},
		{lat, noisy, []float64{105}, unresolved},
		{lat, noisy, []float64{140}, regressed},
	}
	for _, tc := range cases {
		if got := judge(tc.d, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: A %v B %v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
