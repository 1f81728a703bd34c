package serve

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ppqtraj/internal/geo"
	"ppqtraj/internal/obs"
	"ppqtraj/internal/traj"
	"ppqtraj/internal/wal"
)

// testLogWriter forwards the repository's structured log lines to the
// test log, so recovery chatter shows up under -v but not on stderr.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// durableOptions is testOptions plus persistence: WAL fsynced on every
// ingest ack, so a simulated crash at any instant may lose nothing.
func durableOptions(t *testing.T, raw *traj.Dataset) Options {
	t.Helper()
	opts := testOptions(raw)
	opts.Dir = t.TempDir()
	opts.WALDir = filepath.Join(opts.Dir, "wal")
	opts.WALSync = wal.SyncAlways
	opts.WALSegmentBytes = 8 << 10 // force rotations so reclamation is exercised
	opts.Log = obs.NewLogger(testLogWriter{t}, obs.LevelDebug, obs.FormatText)
	return opts
}

// bruteSTRQ is the ground-truth exact range query: IDs of the prefix's
// raw points inside rect at tick, sorted. Matches both tiers' exact
// semantics (rect.Contains over raw positions).
func bruteSTRQ(cols []*traj.Column, rect geo.Rect, tick int) []traj.ID {
	var ids []traj.ID
	for _, col := range cols {
		if col.Tick != tick {
			continue
		}
		for i, id := range col.IDs {
			if rect.Contains(col.Points[i]) {
				ids = append(ids, id)
			}
		}
	}
	return sortedIDs(ids)
}

// bruteWindow is the ground-truth window query over the ingested prefix.
func bruteWindow(cols []*traj.Column, rect geo.Rect, from, to int) []traj.ID {
	seen := make(map[traj.ID]struct{})
	for _, col := range cols {
		if col.Tick < from || col.Tick > to {
			continue
		}
		for i, id := range col.IDs {
			if rect.Contains(col.Points[i]) {
				seen[id] = struct{}{}
			}
		}
	}
	ids := make([]traj.ID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	return sortedIDs(ids)
}

func sortedIDs(ids []traj.ID) []traj.ID {
	out := append([]traj.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) == 0 {
		return nil
	}
	return out
}

// verifyAgainstTruth fires exact STRQ and window probes at the repository
// and checks every answer point-for-point against the brute-force oracle
// over the ingested prefix.
func verifyAgainstTruth(t *testing.T, repo *Repository, cols []*traj.Column, rng *rand.Rand, probes int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < probes; i++ {
		col := cols[rng.Intn(len(cols))]
		p := col.Points[rng.Intn(col.Len())]
		ans, err := strq(ctx, repo, STRQRequest{P: p, Tick: col.Tick, Exact: true})
		if err != nil {
			t.Fatalf("STRQ(tick %d): %v", col.Tick, err)
		}
		if !ans.Covered {
			t.Fatalf("STRQ(tick %d): ingested tick reported uncovered", col.Tick)
		}
		want := bruteSTRQ(cols, ans.Cell, col.Tick)
		if got := sortedIDs(ans.IDs); !reflect.DeepEqual(got, want) {
			t.Fatalf("STRQ(tick %d, source %s): got %v want %v", col.Tick, ans.Source, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		a := cols[rng.Intn(len(cols))]
		pa := a.Points[rng.Intn(a.Len())]
		pb := a.Points[rng.Intn(a.Len())]
		// The tiny asymmetric margin keeps the corner points strictly
		// inside, so float boundary coincidence cannot flake the oracle.
		rect := geo.Rect{
			MinX: min(pa.X, pb.X) - 1e-9, MinY: min(pa.Y, pb.Y) - 2e-9,
			MaxX: max(pa.X, pb.X) + 3e-9, MaxY: max(pa.Y, pb.Y) + 4e-9,
		}
		from := cols[0].Tick + rng.Intn(len(cols))
		to := from + rng.Intn(30)
		if last := cols[len(cols)-1].Tick; to > last {
			to = last
		}
		if to < from {
			continue
		}
		res, err := repo.Window(ctx, rect, from, to, true)
		if err != nil {
			t.Fatalf("Window([%d,%d]): %v", from, to, err)
		}
		want := bruteWindow(cols, rect, from, to)
		if got := sortedIDs(res.IDs); !reflect.DeepEqual(got, want) {
			t.Fatalf("Window([%d,%d]): got %v want %v", from, to, got, want)
		}
	}
}

// tearWALTail simulates a torn final append: garbage bytes at the end of
// the newest WAL file, as a crash mid-write would leave.
func tearWALTail(t *testing.T, walDir string) {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".log") && (newest == "" || e.Name() > newest) {
			newest = e.Name()
		}
	}
	if newest == "" {
		return
	}
	f, err := os.OpenFile(filepath.Join(walDir, newest), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xBE, 0xEF, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryTorture is the durability acceptance test: a
// deterministic stream is ingested with crashes simulated at randomized
// points (the process state is dropped and the repository reopened from
// disk, sometimes with a torn WAL tail thrown in). Compaction runs only
// at fixed stream positions, so sealed-segment boundaries are identical
// to a never-crashed run — which makes every answer comparable
// point-for-point. After each recovery AND at the end, exact STRQ and
// window answers must equal the brute-force ground truth, and Path
// answers must equal a never-crashed reference run's bit for bit.
func TestCrashRecoveryTorture(t *testing.T) {
	d, cols := testData(t)
	rng := rand.New(rand.NewSource(31))

	opts := durableOptions(t, d)
	// Compaction must be deterministic for point-for-point comparison:
	// no background runs (huge trigger span, idle interval), only the
	// explicit Flush calls below.
	opts.HotTicks = 1 << 30
	opts.KeepHotTicks = 0 // withDefaults clamps to HotTicks-1; irrelevant without triggers
	opts.CompactInterval = time.Hour

	// The never-crashed reference run, same options in its own dir.
	refOpts := opts
	refOpts.Dir = t.TempDir()
	refOpts.WALDir = ""
	ref, err := Open(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Fixed stream positions where both runs compact.
	flushAt := map[int]bool{len(cols) / 4: true, len(cols) / 2: true, (4 * len(cols)) / 5: true}
	// Randomized crash points for the torture run.
	crashAt := make(map[int]bool)
	for len(crashAt) < 6 {
		crashAt[1+rng.Intn(len(cols)-1)] = true
	}

	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	replays := 0
	for i, col := range cols {
		if crashAt[i] {
			// Crash: drop the process state without Flush — the in-memory
			// hot tail is simply gone — and reopen from disk. Half the
			// crashes also tear the WAL's final record.
			stopWithoutFlush(t, repo)
			if rng.Intn(2) == 0 {
				tearWALTail(t, opts.WALDir)
			}
			repo, err = Open(opts)
			if err != nil {
				t.Fatalf("reopen after crash at column %d: %v", i, err)
			}
			st := repo.Stats()
			if st.HotPoints+st.SegmentPoints == 0 && i > 0 {
				t.Fatalf("recovery at column %d came back empty", i)
			}
			replays++
			verifyAgainstTruth(t, repo, cols[:i], rng, 20)
		}
		if err := repo.IngestColumn(col); err != nil {
			t.Fatalf("ingest column %d after %d replays: %v", i, replays, err)
		}
		if err := ref.IngestColumn(col); err != nil {
			t.Fatalf("reference ingest column %d: %v", i, err)
		}
		if flushAt[i] {
			if err := repo.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if repo.Stats().WALReplayedPoints == 0 {
		t.Fatal("torture run never exercised WAL replay")
	}

	// Final point-for-point comparison against ground truth and the
	// never-crashed reference.
	verifyAgainstTruth(t, repo, cols, rng, 60)
	ctx := context.Background()
	for _, tr := range d.All() {
		from := tr.Start - 1
		l := tr.Len() + 2
		got := repo.Path(ctx, tr.ID, from, l)
		want := ref.Path(ctx, tr.ID, from, l)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Path(%d) diverged from the never-crashed run:\n got %+v\nwant %+v", tr.ID, got, want)
		}
	}

	// Reclamation: after a full flush every WAL record is sealed, so the
	// log must shrink to one empty active file.
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	st := repo.Stats()
	if st.WAL.Segments != 1 || st.WAL.Bytes != 0 {
		t.Fatalf("WAL not reclaimed after full flush: %d segments, %d bytes", st.WAL.Segments, st.WAL.Bytes)
	}
	if st.WAL.Reclaimed == 0 {
		t.Fatal("no WAL segments were ever reclaimed")
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// One last restart: nothing hot remains, everything served from
	// sealed segments, still ground-truth exact.
	repo, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if st := repo.Stats(); st.WALReplayedPoints != 0 || st.HotPoints != 0 {
		t.Fatalf("fully flushed repository replayed %d points / %d hot", st.WALReplayedPoints, st.HotPoints)
	}
	verifyAgainstTruth(t, repo, cols, rng, 30)
}

// stopWithoutFlush simulates the crash: stop the background goroutines so
// the dying "process" cannot keep writing to the directory, but do not
// flush — the hot tail's memory is lost exactly as a kill would lose it.
func stopWithoutFlush(t *testing.T, repo *Repository) {
	t.Helper()
	if err := repo.Close(); err != nil {
		t.Fatalf("simulated crash: %v", err)
	}
}

// TestCrashRecoveryRacingCompaction crashes a repository whose background
// compactor is aggressively racing the ingest stream (run it with -race).
// Sealed-segment boundaries are then timing-dependent, so answers are
// checked against the brute-force oracle — which exact mode must match
// regardless of how the data ended up sharded — and every acknowledged
// ingest must survive every crash (fsync=always).
func TestCrashRecoveryRacingCompaction(t *testing.T) {
	d, cols := testData(t)
	rng := rand.New(rand.NewSource(97))

	opts := durableOptions(t, d)
	opts.HotTicks = 8
	opts.KeepHotTicks = 2
	opts.MaxSegmentTicks = 12
	opts.CompactInterval = time.Millisecond

	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for i, col := range cols {
		if i > 0 && rng.Intn(25) == 0 {
			stopWithoutFlush(t, repo)
			repo, err = Open(opts)
			if err != nil {
				t.Fatalf("reopen after crash at column %d: %v", i, err)
			}
			crashes++
			verifyAgainstTruth(t, repo, cols[:i], rng, 10)
		}
		if err := repo.IngestColumn(col); err != nil {
			t.Fatalf("ingest column %d: %v", i, err)
		}
	}
	if crashes == 0 {
		t.Fatal("rng produced no crashes; lower the modulus")
	}
	verifyAgainstTruth(t, repo, cols, rng, 40)
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	verifyAgainstTruth(t, repo, cols, rng, 20)
	st := repo.Stats()
	if st.WAL.Segments != 1 || st.WAL.Bytes != 0 {
		t.Fatalf("WAL not reclaimed after full flush: %d segments, %d bytes", st.WAL.Segments, st.WAL.Bytes)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOrphanSegmentGC: files a crash left behind — a segment written but
// never referenced by a manifest swap, stray temp files — are deleted on
// Open, logged, and counted; referenced files and foreign files survive.
func TestOrphanSegmentGC(t *testing.T) {
	d, cols := testData(t)
	opts := durableOptions(t, d)
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range cols[:40] {
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	orphans := []string{"seg-099999.ppqs", "seg-000000.ppqs.tmp123", manifestName + ".tmp"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(opts.Dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	foreign := filepath.Join(opts.Dir, "NOTES.txt")
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	opts.Log = obs.NewLogger(&logBuf, obs.LevelInfo, obs.FormatText)
	repo, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	if st := repo.Stats(); st.OrphansRemoved != int64(len(orphans)) {
		t.Fatalf("OrphansRemoved = %d, want %d (logged: %q)", st.OrphansRemoved, len(orphans), logBuf.String())
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(opts.Dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s still present (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file was touched: %v", err)
	}
	if got := strings.Count(logBuf.String(), "removed orphaned file"); got < len(orphans) {
		t.Fatalf("orphan removal logged %d times, want %d: %q", got, len(orphans), logBuf.String())
	}
	// The reloaded segments must still answer.
	rng := rand.New(rand.NewSource(5))
	verifyAgainstTruth(t, repo, cols[:40], rng, 15)
}

// TestRecoveryRestoresContiguityContract: after a crash and replay, the
// per-trajectory lastSeen state must be back, so an ingest that skips a
// tick for a live trajectory is still rejected and a contiguous one still
// accepted.
func TestRecoveryRestoresContiguityContract(t *testing.T) {
	opts := durableOptions(t, nil)
	repo, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	id := traj.ID(7)
	for tick := 10; tick <= 12; tick++ {
		if err := repo.Ingest(tick, []traj.ID{id}, []geo.Point{geo.Pt(1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	stopWithoutFlush(t, repo)

	repo, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	if st := repo.Stats(); st.WALReplayedPoints != 3 {
		t.Fatalf("replayed %d points, want 3", st.WALReplayedPoints)
	}
	// A gap must still be rejected…
	if err := repo.Ingest(14, []traj.ID{id}, []geo.Point{geo.Pt(1, 1)}); err == nil {
		t.Fatal("gap after replay was accepted: lastSeen not restored")
	}
	// …a duplicate too…
	if err := repo.Ingest(12, []traj.ID{id}, []geo.Point{geo.Pt(1, 1)}); err == nil {
		t.Fatal("duplicate tick after replay was accepted")
	}
	// …and the contiguous continuation accepted.
	if err := repo.Ingest(13, []traj.ID{id}, []geo.Point{geo.Pt(1, 1)}); err != nil {
		t.Fatalf("contiguous continuation rejected after replay: %v", err)
	}
}
