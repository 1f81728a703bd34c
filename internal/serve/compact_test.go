package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// TestChunkColumns: a chunk starts at the first column left and takes
// every column less than maxTicks ticks after it, gaps included.
func TestChunkColumns(t *testing.T) {
	var cols []*traj.Column
	for _, tick := range []int{0, 1, 2, 3, 4, 9, 10, 20, 21, 22, 23, 24, 25} {
		cols = append(cols, &traj.Column{Tick: tick})
	}
	var got [][]int
	for _, ch := range chunkColumns(cols, 4) {
		var ticks []int
		for _, c := range ch {
			ticks = append(ticks, c.Tick)
		}
		got = append(got, ticks)
	}
	want := [][]int{{0, 1, 2, 3}, {4}, {9, 10}, {20, 21, 22, 23}, {24, 25}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunks %v, want %v", got, want)
	}
	if n := len(chunkColumns(nil, 4)); n != 0 {
		t.Fatalf("no columns cut into %d chunks", n)
	}
}

// TestSnapshotSharesFrozenColumns: a compaction snapshot hands the
// builder the hot columns' own arrays, and freeze is what keeps them
// fixed: an ingest at or below the bound is rejected, one above it is
// accepted and stays hot — also while a flush of the repository is in
// flight. Run with -race.
func TestSnapshotSharesFrozenColumns(t *testing.T) {
	h := newHotTail()
	ids := []traj.ID{1, 2, 3}
	pts := func(tick int) []geo.Point {
		return []geo.Point{{X: float64(tick), Y: 1}, {X: float64(tick), Y: 2}, {X: float64(tick), Y: 3}}
	}
	for tick := 0; tick < 5; tick++ {
		if err := h.ingest(tick, ids, pts(tick), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	const bound = 3
	h.freeze(bound)
	snap := h.snapshot(bound)
	if len(snap) != bound+1 {
		t.Fatalf("snapshot holds %d columns, want %d", len(snap), bound+1)
	}
	for _, c := range snap {
		hc := h.cols[c.Tick]
		if &c.IDs[0] != &hc.ids[0] || &c.Points[0] != &hc.pts[0] {
			t.Fatalf("tick %d: snapshot column does not share the hot column's arrays", c.Tick)
		}
	}
	err := h.ingest(2, []traj.ID{4}, []geo.Point{{X: 9, Y: 9}}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "sealed watermark") {
		t.Fatalf("ingest at tick 2 ≤ frozen bound: err = %v, want a watermark rejection", err)
	}
	if err := h.ingest(5, ids, pts(5), nil, nil); err != nil {
		t.Fatalf("ingest above the frozen bound: %v", err)
	}
	if got := h.cols[2]; len(got.ids) != len(ids) || len(snap[2].IDs) != len(ids) {
		t.Fatalf("frozen tick 2 changed: hot %d ids, snapshot %d", len(got.ids), len(snap[2].IDs))
	}
	if h.cols[5] == nil || len(h.cols[5].ids) != len(ids) {
		t.Fatal("accepted tick 5 is not in the hot tail")
	}

	// The same contract through a repository whose flushes race a
	// writer streaming fresh ticks and a prober aiming below the frozen
	// bound.
	d, cols := testData(t)
	opts := testOptions(d)
	opts.HotTicks = 1 << 30
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	half := len(cols) / 2
	for _, col := range cols[:half] {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	low := cols[half-1].Tick
	var wg sync.WaitGroup
	wg.Add(2)
	var flushErr error
	go func() {
		defer wg.Done()
		flushErr = repo.Flush()
	}()
	lowAccepted := 0
	go func() {
		defer wg.Done()
		// New IDs at an already-resident tick: accepted before the freeze
		// (and sealed by this flush), rejected after it.
		for i := 0; i < 200; i++ {
			if repo.Ingest(low, []traj.ID{traj.ID(1_000_000 + i)}, []geo.Point{cols[0].Points[0]}) == nil {
				lowAccepted++
			}
		}
	}()
	for _, col := range cols[half:] {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatalf("ingest of fresh tick %d: %v", col.Tick, err)
		}
	}
	wg.Wait()
	if flushErr != nil {
		t.Fatal(flushErr)
	}
	st := repo.Stats()
	if st.SealedThrough < low {
		t.Fatalf("flush sealed through %d, want ≥ %d", st.SealedThrough, low)
	}
	if err := repo.Ingest(low, []traj.ID{2_000_000}, []geo.Point{cols[0].Points[0]}); err == nil {
		t.Fatal("ingest at a sealed tick accepted after the flush")
	}
	total, hot := lowAccepted, 0
	for _, col := range cols {
		total += col.Len()
		if col.Tick > st.SealedThrough {
			hot += col.Len()
		}
	}
	if st.SegmentPoints+st.HotPoints != total || st.HotPoints != hot {
		t.Fatalf("%d sealed + %d hot points, want %d in all and %d hot", st.SegmentPoints, st.HotPoints, total, hot)
	}
	ctx := context.Background()
	for _, col := range cols[half:] {
		if col.Tick <= st.SealedThrough {
			continue
		}
		for i, p := range col.Points {
			ans, err := repo.STRQ(ctx, STRQRequest{P: p, Tick: col.Tick, Exact: true})
			if err != nil {
				t.Fatal(err)
			}
			if ans.Source != "hot" || !slices.Contains(ans.IDs, col.IDs[i]) {
				t.Fatalf("tick %d id %d: source %s ids %v, want it from the hot tail", col.Tick, col.IDs[i], ans.Source, ans.IDs)
			}
		}
	}
}

// backlogOptions is a persistent repository whose compactor never runs
// on its own, so a Flush drains the whole test stream as one backlog of
// MaxSegmentTicks-10 chunks of falling density.
func backlogOptions(t *testing.T, workers int) (Options, []*traj.Column) {
	t.Helper()
	d, cols := testData(t)
	opts := testOptions(d)
	opts.Dir = t.TempDir()
	opts.WALSegmentBytes = 8 << 10 // several WAL files, so a truncation shows
	opts.HotTicks = 1 << 30
	opts.MaxSegmentTicks = 10
	opts.CompactInterval = time.Hour
	opts.Workers = workers
	return opts, cols
}

func ingestAll(t *testing.T, repo *Repository, cols []*traj.Column) {
	t.Helper()
	for _, col := range cols {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
}

// dataFiles returns every file of dir except the WAL's, by name.
func dataFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = blob
	}
	return files
}

// compareResults fails unless two observations of repositories that
// should be the same agree in every segment field and every answer, and
// at least one answer matched something.
func compareResults(t *testing.T, a, b openResult) {
	t.Helper()
	if !reflect.DeepEqual(a.segs, b.segs) {
		t.Fatalf("segments differ:\n%+v\n%+v", a.segs, b.segs)
	}
	hits := 0
	for i := range a.windows {
		if !reflect.DeepEqual(a.windows[i], b.windows[i]) {
			t.Fatalf("window %d differs:\n%+v\n%+v", i, a.windows[i], b.windows[i])
		}
		hits += len(a.windows[i].IDs)
	}
	for i := range a.batches {
		for j, x := range a.batches[i] {
			if x.Err != "" {
				t.Fatalf("batch %d answer %d: %s", i, j, x.Err)
			}
			if !reflect.DeepEqual(x, b.batches[i][j]) {
				t.Fatalf("batch %d answer %d differs:\n%+v\n%+v", i, j, x, b.batches[i][j])
			}
			hits += len(x.IDs)
		}
	}
	if hits == 0 {
		t.Fatal("no query matched anything; the comparison proves nothing")
	}
}

// TestParallelCompactionMatchesSerial: a backlog flushed with its chunks
// built on a parallel pool publishes the same segments, in the same
// order with the same IDs, files and cache owners, writes byte-identical
// segment, zone and manifest files, counts the same compactions, and
// answers every window and batch identically to a serial flush.
func TestParallelCompactionMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type flushed struct {
		res   openResult
		files map[string][]byte
	}
	flush := func(workers int) flushed {
		opts, cols := backlogOptions(t, workers)
		repo, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer repo.Close()
		ingestAll(t, repo, cols)
		if err := repo.Flush(); err != nil {
			t.Fatalf("Flush(Workers=%d): %v", workers, err)
		}
		return flushed{observe(t, repo), dataFiles(t, opts.Dir)}
	}
	serial, parallel := flush(1), flush(4)

	if n := len(serial.res.segs); n < 6 {
		t.Fatalf("flush built %d segments, want a backlog of ≥ 6", n)
	}
	minPts, maxPts := serial.res.segs[0].Points, serial.res.segs[0].Points
	for _, s := range serial.res.segs {
		minPts, maxPts = min(minPts, s.Points), max(maxPts, s.Points)
	}
	if maxPts < 4*minPts {
		t.Fatalf("chunk sizes %d..%d points are not uneven", minPts, maxPts)
	}
	compareResults(t, serial.res, parallel.res)
	if len(serial.files) != 2*len(serial.res.segs)+1 {
		t.Fatalf("serial flush left %d files for %d segments", len(serial.files), len(serial.res.segs))
	}
	if !reflect.DeepEqual(serial.files, parallel.files) {
		for name, blob := range serial.files {
			if string(parallel.files[name]) != string(blob) {
				t.Fatalf("%s differs between the serial and parallel flush", name)
			}
		}
		t.Fatal("the parallel flush left files the serial one did not")
	}
	for _, st := range []Stats{serial.res.stats, parallel.res.stats} {
		if st.Compactions != serial.res.stats.Compactions || st.CompactedPoints != serial.res.stats.CompactedPoints {
			t.Fatalf("compactions %d / %d points, serial %d / %d", st.Compactions, st.CompactedPoints,
				serial.res.stats.Compactions, serial.res.stats.CompactedPoints)
		}
		if st.CompactionSeconds <= 0 || st.CompactionBusySeconds <= 0 {
			t.Fatalf("compaction timers not set: %+v", st)
		}
	}
	if st := serial.res.stats; st.Compactions != int64(len(serial.res.segs)) {
		t.Fatalf("%d compactions for %d segments", st.Compactions, len(serial.res.segs))
	}
	// Serially, busy time is the builds themselves and wall time adds the
	// publishes around them.
	if st := serial.res.stats; st.CompactionBusySeconds > st.CompactionSeconds {
		t.Fatalf("serial flush: busy %.6fs exceeds wall %.6fs", st.CompactionBusySeconds, st.CompactionSeconds)
	}
}

// TestCompactionChunkFailure: when the third chunk of a backlog cannot be
// persisted, Flush fails having published exactly the first two chunks,
// leaves the WAL whole and every acked point answering exactly, and
// writes nothing after it returns; once the obstacle is gone a second
// Flush publishes the rest under the same IDs, and the directory reopens
// to what a clean flush builds.
func TestCompactionChunkFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cleanOpts, cols := backlogOptions(t, 1)
	clean, err := Open(cleanOpts)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, clean, cols)
	if err := clean.Flush(); err != nil {
		t.Fatal(err)
	}
	cleanSegs := clean.Segments()
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
	if len(cleanSegs) < 5 {
		t.Fatalf("clean flush built %d segments, want ≥ 5", len(cleanSegs))
	}
	want := reopenWith(t, cleanOpts, 1)

	for _, workers := range []int{1, 4} {
		opts, _ := backlogOptions(t, workers)
		repo, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, repo, cols)
		// A directory under the third segment's name makes its persist's
		// rename fail.
		blocker := filepath.Join(opts.Dir, segmentFileName(2))
		if err := os.Mkdir(blocker, 0o755); err != nil {
			t.Fatal(err)
		}
		before := repo.wal.Stats()
		if err := repo.Flush(); err == nil {
			t.Fatalf("Workers=%d: Flush succeeded with segment 2 blocked", workers)
		}
		after := dataFiles(t, opts.Dir)
		time.Sleep(50 * time.Millisecond)
		if again := dataFiles(t, opts.Dir); !reflect.DeepEqual(after, again) {
			t.Fatalf("Workers=%d: files changed after Flush returned", workers)
		}
		for name := range after {
			if strings.Contains(name, ".tmp") {
				t.Fatalf("Workers=%d: temp file %s left behind", workers, name)
			}
		}

		segs := repo.Segments()
		if len(segs) != 2 || segs[0].ID != 0 || segs[1].ID != 1 {
			t.Fatalf("Workers=%d: published %+v, want segments 0 and 1", workers, segs)
		}
		var m manifest
		if err := json.Unmarshal(after[manifestName], &m); err != nil {
			t.Fatal(err)
		}
		if len(m.Segments) != 2 || m.Segments[1].ID != 1 || m.SealedThrough != segs[1].EndTick || m.NextSegmentID != 2 {
			t.Fatalf("Workers=%d: manifest %+v, want segments 0 and 1 sealed through %d", workers, m, segs[1].EndTick)
		}
		if ws := repo.wal.Stats(); ws.Reclaimed != 0 || ws.Segments != before.Segments || ws.OldestRec != before.OldestRec {
			t.Fatalf("Workers=%d: WAL truncated after a failed flush: %+v", workers, ws)
		}
		ctx := context.Background()
		for _, col := range cols {
			for i, p := range col.Points {
				ans, err := repo.STRQ(ctx, STRQRequest{P: p, Tick: col.Tick, Exact: true})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Contains(ans.IDs, col.IDs[i]) {
					t.Fatalf("Workers=%d: tick %d id %d missing (source %s)", workers, col.Tick, col.IDs[i], ans.Source)
				}
				if hot := col.Tick > segs[1].EndTick; hot != (ans.Source == "hot") {
					t.Fatalf("Workers=%d: tick %d answered from %s", workers, col.Tick, ans.Source)
				}
			}
		}

		if err := os.Remove(blocker); err != nil {
			t.Fatal(err)
		}
		if err := repo.Flush(); err != nil {
			t.Fatalf("Workers=%d: retry: %v", workers, err)
		}
		retried := repo.Segments()
		if len(retried) != len(cleanSegs) {
			t.Fatalf("Workers=%d: retry left %d segments, a clean flush %d", workers, len(retried), len(cleanSegs))
		}
		for i, s := range retried {
			c := cleanSegs[i]
			if s.ID != c.ID || s.StartTick != c.StartTick || s.EndTick != c.EndTick || s.File != c.File || s.SizeBytes != c.SizeBytes {
				t.Fatalf("Workers=%d: segment %d is %+v, a clean flush built %+v", workers, i, *s, *c)
			}
		}
		if ws := repo.wal.Stats(); ws.Reclaimed == 0 || ws.OldestRec == before.OldestRec {
			t.Fatalf("Workers=%d: WAL not truncated after the retry: %+v", workers, ws)
		}
		if err := repo.Close(); err != nil {
			t.Fatal(err)
		}
		got := reopenWith(t, opts, 1)
		compareResults(t, want, got)
		if !reflect.DeepEqual(dataFiles(t, cleanOpts.Dir), dataFiles(t, opts.Dir)) {
			t.Fatalf("Workers=%d: the retried directory differs from a clean flush's", workers)
		}
	}
}
