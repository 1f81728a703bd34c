package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ppqtraj/internal/core"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/traj"
)

// The upgrade fixtures: testdata/golden-vN/data is a repository directory
// (segments, zone sidecars and MANIFEST.json, no WAL) whose segments the
// version-N summary writer produced, and testdata/golden-vN/answers.json
// lists windows over it with the IDs the writing binary answered.
//
//	go test ./internal/serve -run TestUpgradeFixtures -update
//
// writes the directory of the current summary version only. Older
// directories are never rewritten: their bytes came from a writer that no
// longer exists.
var update = flag.Bool("update", false, "write testdata/golden-v<current summary version>")

const (
	// upgradeCut is the first tick the fixture does not hold; the test
	// ingests the stream from here on.
	upgradeCut = 48
	// upgradeFlushEvery seals the fixture's ticks into segments this wide.
	upgradeFlushEvery = 16
	// upgradeMaxDirBytes caps each fixture directory.
	upgradeMaxDirBytes = 64 << 10
)

// upgradeData is the fixture's stream: trajectories with staggered
// starts, so every segment holds some that begin and some that continue.
func upgradeData() (*traj.Dataset, []*traj.Column) {
	d := gen.Porto(gen.Config{NumTrajectories: 24, MinLen: 20, MaxLen: 40, Horizon: 40, Seed: 46})
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

// upgradeOptions seals only on explicit flushes, one segment per flush.
func upgradeOptions(dir string, raw *traj.Dataset) Options {
	opts := testOptions(raw)
	opts.Index.GC = geo.MetersToDegrees(500) // keeps the zone bitmaps small
	opts.Dir = dir
	opts.HotTicks = 1 << 30
	opts.MaxSegmentTicks = 1 << 30
	opts.CompactInterval = time.Hour
	return opts
}

// upgradeWindow is one recorded window query and its answer.
type upgradeWindow struct {
	Rect  geo.Rect  `json:"rect"`
	From  int       `json:"from"`
	To    int       `json:"to"`
	Exact bool      `json:"exact"`
	IDs   []traj.ID `json:"ids"`
}

// sampleWindows picks windows around reconstructed points of the sealed
// segments by a seeded walk, alternating approximate and exact, and
// records the repository's answers.
func sampleWindows(t *testing.T, repo *Repository, seed int64, n int) []upgradeWindow {
	t.Helper()
	segs := repo.Segments()
	rng := rand.New(rand.NewSource(seed))
	var out []upgradeWindow
	for i := 0; i < n; i++ {
		sum := segs[rng.Intn(len(segs))].Sum
		ids := sum.TrajIDs()
		tr := sum.Trajs[ids[rng.Intn(len(ids))]]
		k := rng.Intn(len(tr.Recon))
		at, tick := tr.Recon[k], tr.Start+k
		half := 0.002 + 0.01*rng.Float64()
		w := upgradeWindow{
			Rect:  geo.Rect{MinX: at.X - half, MinY: at.Y - half, MaxX: at.X + half, MaxY: at.Y + half},
			From:  tick - rng.Intn(10),
			Exact: i%2 == 1,
		}
		w.To = w.From + rng.Intn(20)
		out = append(out, w)
	}
	return answerWindows(t, repo, out)
}

// answerWindows returns ws with each IDs field replaced by repo's answer.
func answerWindows(t *testing.T, repo *Repository, ws []upgradeWindow) []upgradeWindow {
	t.Helper()
	out := make([]upgradeWindow, len(ws))
	for i, w := range ws {
		res, err := repo.Window(context.Background(), w.Rect, w.From, w.To, w.Exact)
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		w.IDs = res.IDs
		out[i] = w
	}
	return out
}

// segmentVersions returns the summary format version of every segment
// file in dir, by file name.
func segmentVersions(t *testing.T, dir string) map[string]int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.ppqs"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = summaryVersionOf(t, blob)
	}
	return out
}

// summaryVersionOf reads the version field after a summary's magic.
func summaryVersionOf(t *testing.T, blob []byte) int {
	t.Helper()
	if len(blob) < 6 || string(blob[:4]) != "PPQS" {
		t.Fatalf("not a summary blob: % x", blob[:min(len(blob), 6)])
	}
	return int(binary.LittleEndian.Uint16(blob[4:6]))
}

// currentSummaryVersion is the version the summary writer writes today.
func currentSummaryVersion(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if _, err := (&core.Summary{}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return summaryVersionOf(t, buf.Bytes())
}

// writeUpgradeFixture seals the stream's ticks below upgradeCut into
// three segments and writes the data directory and its answers to
// testdata/golden-v<current version>.
func writeUpgradeFixture(t *testing.T) {
	t.Helper()
	raw, cols := upgradeData()
	work := t.TempDir()
	repo, err := Open(upgradeOptions(work, raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range cols {
		if col.Tick >= upgradeCut {
			break
		}
		if err := repo.IngestColumn(col); err != nil {
			t.Fatal(err)
		}
		if (col.Tick+1)%upgradeFlushEvery == 0 {
			if err := repo.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(repo.Segments()); n != upgradeCut/upgradeFlushEvery {
		t.Fatalf("fixture holds %d segments, want %d", n, upgradeCut/upgradeFlushEvery)
	}
	answers := sampleWindows(t, repo, 46, 24)
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join("testdata", fmt.Sprintf("golden-v%d", currentSummaryVersion(t)))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.IsDir() {
			continue // the WAL: everything in it is sealed
		}
		blob, err := os.ReadFile(filepath.Join(work, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "data", f.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := json.MarshalIndent(answers, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "answers.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyFixture copies a fixture's data directory into a fresh temp dir.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		blob, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func checkAnswers(t *testing.T, what string, repo *Repository, want []upgradeWindow) {
	t.Helper()
	got := answerWindows(t, repo, want)
	for i := range want {
		if !reflect.DeepEqual(got[i].IDs, want[i].IDs) {
			t.Fatalf("%s: window %d (%+v) answered %v, want %v", what, i, want[i], got[i].IDs, want[i].IDs)
		}
	}
}

// TestUpgradeFixtures opens every committed fixture directory: the
// segments an older writer left must answer the recorded windows with
// the same IDs. It then ingests the rest of the stream and flushes once,
// so the directory holds the fixture's segments beside ones the current
// writer wrote, and reopens it: every answer must survive.
func TestUpgradeFixtures(t *testing.T) {
	if *update {
		writeUpgradeFixture(t)
	}
	dirs, err := filepath.Glob(filepath.Join("testdata", "golden-v*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no upgrade fixtures (err %v)", err)
	}
	sort.Strings(dirs)
	current := currentSummaryVersion(t)
	raw, cols := upgradeData()
	for _, fixture := range dirs {
		t.Run(filepath.Base(fixture), func(t *testing.T) {
			var from int
			if _, err := fmt.Sscanf(filepath.Base(fixture), "golden-v%d", &from); err != nil {
				t.Fatal(err)
			}
			blob, err := os.ReadFile(filepath.Join(fixture, "answers.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want []upgradeWindow
			if err := json.Unmarshal(blob, &want); err != nil {
				t.Fatal(err)
			}
			dir := copyFixture(t, filepath.Join(fixture, "data"))
			old := segmentVersions(t, dir)
			for name, v := range old {
				if v != from {
					t.Fatalf("%s is version %d in the golden-v%d fixture", name, v, from)
				}
			}

			opts := upgradeOptions(dir, raw)
			repo, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkAnswers(t, "fixture", repo, want)

			for _, col := range cols {
				if col.Tick < upgradeCut {
					continue
				}
				if err := repo.IngestColumn(col); err != nil {
					t.Fatal(err)
				}
			}
			if err := repo.Flush(); err != nil {
				t.Fatal(err)
			}
			fresh := sampleWindows(t, repo, 47, 24)
			if err := repo.Close(); err != nil {
				t.Fatal(err)
			}
			// The fixture's segments are never rewritten; the flush adds
			// segments in the current format beside them.
			after := segmentVersions(t, dir)
			if len(after) <= len(old) {
				t.Fatalf("the flush added no segment: %v", after)
			}
			for name, v := range after {
				if want, ok := old[name]; !ok && v != current || ok && v != want {
					t.Fatalf("after the flush %s is version %d (fixture %v, current %d)", name, v, old, current)
				}
			}

			repo, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer repo.Close()
			checkAnswers(t, "reopened fixture", repo, want)
			checkAnswers(t, "reopened fresh", repo, fresh)
		})
	}
}

// TestUpgradeFixturesSmall keeps every fixture directory under its cap.
func TestUpgradeFixturesSmall(t *testing.T) {
	err := filepath.WalkDir("testdata", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || !strings.HasPrefix(d.Name(), "golden-v") {
			return err
		}
		total := int64(0)
		_ = filepath.WalkDir(path, func(_ string, f os.DirEntry, _ error) error {
			if info, ierr := f.Info(); ierr == nil && !f.IsDir() {
				total += info.Size()
			}
			return nil
		})
		if total > upgradeMaxDirBytes {
			t.Errorf("%s holds %d bytes, cap %d", path, total, upgradeMaxDirBytes)
		}
		return filepath.SkipDir
	})
	if err != nil {
		t.Fatal(err)
	}
}
