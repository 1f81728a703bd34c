package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"ppqtraj/internal/cqc"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/quant"
	"ppqtraj/internal/traj"
)

// Golden summaries pin the bytes each format version's writer produced.
// testdata/golden-vN holds one file per goldenSummaries entry, written by
// the version-N writer, and hashes.json with, per file, a SHA-256 of the
// decoded parameters (entries, coefficients, codebooks) and, on amd64
// only, of the reconstruction bits: other architectures may fuse the
// decoder's multiply-adds, so their reconstructions differ in the last
// bits.
//
//	go test ./internal/core -run TestGoldenSummaries -update
//
// rewrites testdata/golden-v<summaryVersion> only. Older directories are
// never rewritten: their bytes came from a writer that no longer exists.
var update = flag.Bool("update", false, "rewrite testdata/golden-v<current summary version>")

// goldenMaxDirBytes caps each fixture directory.
const goldenMaxDirBytes = 64 << 10

type goldenHashes struct {
	Params string `json:"params_sha256"`
	Recon  string `json:"recon_sha256,omitempty"`
}

// goldenSummaries builds the fixture set: Spatial, Autocorr and None
// partitioning, the incremental and FixedWords codebooks, a summary
// without CQC, and a hand-built one-entry summary small enough to edit
// byte by byte.
func goldenSummaries() map[string]*Summary {
	d := gen.Porto(gen.Config{NumTrajectories: 10, MinLen: 20, MaxLen: 30, Horizon: 8, Seed: 25})
	seeded := func(o Options) Options {
		o.Seed = 25
		return o
	}
	basic := DefaultOptions(partition.Spatial, 0.1)
	basic.UseCQC = false
	out := map[string]*Summary{
		"spatial":  Build(d, seeded(DefaultOptions(partition.Spatial, 0.1))),
		"autocorr": Build(d, seeded(DefaultOptions(partition.Autocorr, 0.2))),
		"epq":      Build(d, seeded(DefaultOptions(partition.None, 0))),
		"fixed-words": Build(d, seeded(Options{
			K: 3, Mode: partition.Spatial, EpsilonP: 0.1, FixedWords: 8,
			UseCQC: true, GS: geo.MetersToDegrees(50),
		})),
		"basic": Build(d, seeded(basic)),
	}
	one := &Summary{
		Opts:  DefaultOptions(partition.Spatial, 0.1),
		Book:  twoWords(),
		Ticks: map[int]*TickSummary{},
		Trajs: map[traj.ID]*TrajSummary{},
	}
	one.Coder = cqc.NewCoder(one.Opts.Epsilon1, one.Opts.GS)
	one.Trajs[7] = &TrajSummary{Entries: []PointEntry{{CQC: cqc.Code{Len: uint8(one.Coder.CodeBits())}}}}
	rec, err := one.Decode(7)
	if err != nil {
		panic(err)
	}
	one.Trajs[7].Recon = rec
	one.NumPoints = len(rec)
	out["one-entry"] = one
	return out
}

// paramsHash digests what a summary file stores: the codebooks, the
// coefficients of every tick and every trajectory's entries.
func paramsHash(s *Summary) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	putBook := func(b *quant.Codebook) {
		if b == nil {
			put(0)
			return
		}
		put(uint64(b.Len()) + 1)
		for _, w := range b.Words {
			put(math.Float64bits(w.X), math.Float64bits(w.Y))
		}
	}
	putBook(s.Book)
	for _, t := range s.SortedTicks() {
		ts := s.Ticks[t]
		put(uint64(t), uint64(len(ts.Coeffs)))
		for _, label := range sortedCoeffLabels(ts.Coeffs) {
			cs := ts.Coeffs[label]
			put(uint64(label), uint64(len(cs)))
			for _, c := range cs {
				put(math.Float64bits(c))
			}
		}
		putBook(ts.Book)
	}
	for _, id := range s.TrajIDs() {
		tr := s.Trajs[id]
		put(uint64(id), uint64(tr.Start), uint64(len(tr.Entries)))
		for _, e := range tr.Entries {
			put(uint64(e.Part), uint64(e.Word), e.CQC.Bits, uint64(e.CQC.Len))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reconHash digests every reconstructed point, bit for bit.
func reconHash(s *Summary) string {
	h := sha256.New()
	for _, id := range s.TrajIDs() {
		tr := s.Trajs[id]
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(id)))
		for _, p := range tr.Recon {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(p.X)))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(p.Y)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashesOf(s *Summary) goldenHashes {
	g := goldenHashes{Params: paramsHash(s)}
	if runtime.GOARCH == "amd64" {
		g.Recon = reconHash(s)
	}
	return g
}

func writeGolden(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	hashes := map[string]goldenHashes{}
	for name, s := range goldenSummaries() {
		f, err := os.Create(filepath.Join(dir, name+".ppqs"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		hashes[name] = hashesOf(s)
	}
	blob, err := json.MarshalIndent(hashes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "hashes.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenDirs returns every fixture directory, oldest version first.
func goldenDirs(t *testing.T) []string {
	t.Helper()
	dirs, err := filepath.Glob("testdata/golden-v*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no golden fixtures (err %v)", err)
	}
	sort.Strings(dirs)
	return dirs
}

// loadGolden reads one directory's hashes.json.
func loadGolden(t *testing.T, dir string) map[string]goldenHashes {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, "hashes.json"))
	if err != nil {
		t.Fatal(err)
	}
	var hashes map[string]goldenHashes
	if err := json.Unmarshal(blob, &hashes); err != nil {
		t.Fatal(err)
	}
	return hashes
}

func checkHashes(t *testing.T, what string, s *Summary, want goldenHashes) {
	t.Helper()
	if got := paramsHash(s); got != want.Params {
		t.Fatalf("%s: parameters hash %s, want %s", what, got, want.Params)
	}
	if runtime.GOARCH == "amd64" && want.Recon != "" {
		if got := reconHash(s); got != want.Recon {
			t.Fatalf("%s: reconstruction hash %s, want %s", what, got, want.Recon)
		}
	}
}

// TestGoldenSummaries loads every fixture of every format version and
// checks that the decoded parameters and reconstructions are the ones
// recorded when the file was written.
func TestGoldenSummaries(t *testing.T) {
	if *update {
		writeGolden(t, fmt.Sprintf("testdata/golden-v%d", summaryVersion))
	}
	for _, dir := range goldenDirs(t) {
		current := filepath.Base(dir) == fmt.Sprintf("golden-v%d", summaryVersion)
		hashes := loadGolden(t, dir)
		if len(hashes) == 0 {
			t.Fatalf("%s records no files", dir)
		}
		for name, want := range hashes {
			path := filepath.Join(dir, name+".ppqs")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(blob) < 6 || filepath.Base(dir) != fmt.Sprintf("golden-v%d", binary.LittleEndian.Uint16(blob[4:])) {
				t.Fatalf("%s is not a summary of its directory's version", path)
			}
			s, err := ReadSummary(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			checkHashes(t, path, s, want)

			// Rewriting gives the current format, which reads back to
			// the same summary; a current-format file comes back byte
			// for byte.
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatalf("%s: rewriting: %v", path, err)
			}
			if v := binary.LittleEndian.Uint16(buf.Bytes()[4:]); v != summaryVersion {
				t.Fatalf("%s: rewritten as version %d", path, v)
			}
			back, err := ReadSummary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: reading the rewrite: %v", path, err)
			}
			checkHashes(t, path+" rewritten", back, want)
			if current && !bytes.Equal(buf.Bytes(), blob) {
				t.Fatalf("%s: rewrite differs from the file", path)
			}
		}
	}
}

// TestGoldenFixturesSmall keeps every fixture directory under its cap.
func TestGoldenFixturesSmall(t *testing.T) {
	for _, dir := range goldenDirs(t) {
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		total := int64(0)
		for _, f := range files {
			info, err := f.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
		if total > goldenMaxDirBytes {
			t.Fatalf("%s holds %d bytes, cap %d", dir, total, goldenMaxDirBytes)
		}
	}
}
