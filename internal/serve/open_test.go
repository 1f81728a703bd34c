package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ppqtraj/internal/core"
	"ppqtraj/internal/geo"
)

// unevenSegments persists the test stream as at least 8 sealed segments
// of uneven tick span (and so uneven size), sealed only by explicit
// flushes, and returns the options that reopen the directory.
func unevenSegments(t *testing.T) Options {
	t.Helper()
	d, cols := testData(t)
	opts := testOptions(d)
	opts.Dir = t.TempDir()
	opts.HotTicks = 1 << 30
	opts.MaxSegmentTicks = 1 << 30
	opts.CompactInterval = time.Hour
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	weights := []int{1, 4, 2, 7, 3, 9, 1, 5, 2, 6}
	total := 0
	for _, w := range weights {
		total += w
	}
	cut, acc := 0, 0
	for _, w := range weights {
		acc += w
		end := acc * len(cols) / total
		for ; cut < end; cut++ {
			if err := repo.IngestColumn(cols[cut]); err != nil {
				t.Fatal(err)
			}
		}
		if err := repo.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(repo.Segments()); n < 8 {
		t.Fatalf("built %d segments, want ≥ 8", n)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	return opts
}

// openResult is everything a reopened repository shows of its load.
type openResult struct {
	segs    []Segment // the scalar fields of each segment, in order
	windows []*WindowResult
	batches [][]STRQAnswer
	stats   Stats
}

func reopenWith(t *testing.T, opts Options, workers int) openResult {
	t.Helper()
	opts.Workers = workers
	repo, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(Workers=%d): %v", workers, err)
	}
	defer repo.Close()
	return observe(t, repo)
}

// observe records a repository's segments, a fixed set of window and
// batch answers over them, and its stats.
func observe(t *testing.T, repo *Repository) openResult {
	t.Helper()
	var res openResult
	for _, s := range repo.Segments() {
		res.segs = append(res.segs, Segment{
			ID: s.ID, StartTick: s.StartTick, EndTick: s.EndTick, Points: s.Points,
			File: s.File, SizeBytes: s.SizeBytes, CacheOwner: s.CacheOwner,
		})
	}
	// Probes sit on reconstructed points, picked by a seeded walk over
	// sorted IDs, so both opens ask the same questions and most match.
	segs := repo.Segments()
	rng := rand.New(rand.NewSource(41))
	sample := func() (geo.Point, int) {
		sum := segs[rng.Intn(len(segs))].Sum
		ids := sum.TrajIDs()
		tr := sum.Trajs[ids[rng.Intn(len(ids))]]
		k := rng.Intn(len(tr.Recon))
		return tr.Recon[k], tr.Start + k
	}
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		at, tick := sample()
		half := 0.002 + 0.01*rng.Float64()
		rect := geo.Rect{MinX: at.X - half, MinY: at.Y - half, MaxX: at.X + half, MaxY: at.Y + half}
		from := tick - rng.Intn(20)
		w, err := repo.Window(ctx, rect, from, from+rng.Intn(60), i%2 == 0)
		if err != nil {
			t.Fatalf("Window: %v", err)
		}
		res.windows = append(res.windows, w)
	}
	for b := 0; b < 4; b++ {
		var reqs []STRQRequest
		for q := 0; q < 16; q++ {
			at, tick := sample()
			reqs = append(reqs, STRQRequest{P: at, Tick: tick, Exact: q%4 == 0, PathLen: (q % 2) * 8})
		}
		res.batches = append(res.batches, repo.Batch(ctx, reqs))
	}
	res.stats = repo.Stats()
	return res
}

// TestParallelOpenMatchesSerial: loading a manifest's segments on a
// parallel pool publishes the same segments, in the same order with the
// same cache owners, and answers every window and batch identically to a
// serial open.
func TestParallelOpenMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	opts := unevenSegments(t)
	serial := reopenWith(t, opts, 1)
	parallel := reopenWith(t, opts, 4)

	if !reflect.DeepEqual(serial.segs, parallel.segs) {
		t.Fatalf("segments differ:\nserial   %+v\nparallel %+v", serial.segs, parallel.segs)
	}
	for i := 1; i < len(serial.segs); i++ {
		if serial.segs[i].StartTick <= serial.segs[i-1].EndTick {
			t.Fatalf("segments out of tick order: %+v", serial.segs)
		}
	}
	hits := 0
	for i := range serial.windows {
		a, b := serial.windows[i], parallel.windows[i]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("window %d differs:\nserial   %+v\nparallel %+v", i, a, b)
		}
		hits += len(a.IDs)
	}
	for i := range serial.batches {
		for j, a := range serial.batches[i] {
			b := parallel.batches[i][j]
			if a.Err != "" {
				t.Fatalf("batch %d answer %d: %s", i, j, a.Err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("batch %d answer %d differs:\nserial   %+v\nparallel %+v", i, j, a, b)
			}
			hits += len(a.IDs)
		}
	}
	if hits == 0 {
		t.Fatal("no query matched anything; the comparison proves nothing")
	}
	for _, r := range []openResult{serial, parallel} {
		if r.stats.OpenLoadSeconds <= 0 || r.stats.OpenLoadBusySeconds <= 0 {
			t.Fatalf("open load gauges not set: %+v", r.stats)
		}
	}
	// Serially, busy time is the loads themselves and wall time adds the
	// loop around them.
	if serial.stats.OpenLoadBusySeconds > serial.stats.OpenLoadSeconds {
		t.Fatalf("serial open: busy %.6fs exceeds wall %.6fs",
			serial.stats.OpenLoadBusySeconds, serial.stats.OpenLoadSeconds)
	}
}

// TestOpenCorruptSegment: a truncated segment and one with a codeword
// outside its codebook both fail to load as core.ErrBadFormat, and Open
// reports the lower-tick one as a SegmentError naming its file, whatever
// the worker count.
func TestOpenCorruptSegment(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	opts := unevenSegments(t)
	serial := reopenWith(t, opts, 1)
	truncated, flipped := serial.segs[3].File, serial.segs[6].File

	path := filepath.Join(opts.Dir, truncated)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(len(blob)/2)); err != nil {
		t.Fatal(err)
	}

	path = filepath.Join(opts.Dir, flipped)
	blob, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := core.ReadSummary(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Book == nil || sum.Opts.FixedWords > 0 {
		t.Fatal("test options no longer code against a global codebook")
	}
	sum.Trajs[sum.TrajIDs()[0]].Entries[0].Word = int32(sum.Book.Len())
	var buf bytes.Buffer
	if _, err := sum.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Each file on its own is malformed, the truncated one by a short read.
	for _, name := range []string{truncated, flipped} {
		f, err := os.Open(filepath.Join(opts.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.ReadSummary(f)
		f.Close()
		if !errors.Is(err, core.ErrBadFormat) {
			t.Fatalf("%s: err = %v, want ErrBadFormat", name, err)
		}
		if name == truncated && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want a short read", name, err)
		}
	}

	for _, workers := range []int{1, 4} {
		o := opts
		o.Workers = workers
		repo, err := Open(o)
		if err == nil {
			repo.Close()
			t.Fatalf("Workers=%d: Open loaded corrupt segments", workers)
		}
		var se *SegmentError
		if !errors.As(err, &se) {
			t.Fatalf("Workers=%d: err = %v (%T), want *SegmentError", workers, err, err)
		}
		if se.File != truncated {
			t.Fatalf("Workers=%d: SegmentError names %s, want the lower-tick %s", workers, se.File, truncated)
		}
		if !errors.Is(err, core.ErrBadFormat) {
			t.Fatalf("Workers=%d: err = %v, want ErrBadFormat", workers, err)
		}
	}
}
