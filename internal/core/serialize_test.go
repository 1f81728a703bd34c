package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ppqtraj/internal/cqc"
	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/predict"
	"ppqtraj/internal/quant"
	"ppqtraj/internal/traj"
)

func roundTrip(t *testing.T, s *Summary) *Summary {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != buf.Len() {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The stored codes and the decoder-rebuilt reconstructions must be
	// bit-identical to the original build's.
	if len(got.Trajs) != len(s.Trajs) {
		t.Fatalf("%d trajectories back, want %d", len(got.Trajs), len(s.Trajs))
	}
	for id, a := range s.Trajs {
		b := got.Trajs[id]
		if b == nil || a.Start != b.Start || !slices.Equal(a.Entries, b.Entries) || !slices.Equal(a.Recon, b.Recon) {
			t.Fatalf("trajectory %d differs after a round trip", id)
		}
	}
	return got
}

func TestSerializeRoundTripPPQS(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 15, MinLen: 30, MaxLen: 50, Seed: 3})
	s := Build(d, DefaultOptions(partition.Spatial, 0.1))
	got := roundTrip(t, s)
	if got.NumPoints != s.NumPoints {
		t.Fatalf("NumPoints %d vs %d", got.NumPoints, s.NumPoints)
	}
	if got.SizeBytes() != s.SizeBytes() {
		t.Fatalf("SizeBytes %d vs %d", got.SizeBytes(), s.SizeBytes())
	}
}

func TestSerializeRoundTripVariants(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 10, MinLen: 25, MaxLen: 35, Seed: 4})
	cases := map[string]Options{
		"autocorr":    DefaultOptions(partition.Autocorr, 0.2),
		"epq-basic":   {K: 3, Epsilon1: 0.001, Mode: partition.None},
		"qtraj":       {K: 3, Epsilon1: 0.001, Mode: partition.None, NoPrediction: true},
		"fixed-words": {K: 3, Mode: partition.Spatial, EpsilonP: 0.1, FixedWords: 8},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) { roundTrip(t, Build(d, opts)) })
	}
}

func TestReadSummaryRejectsGarbage(t *testing.T) {
	if _, err := ReadSummary(bytes.NewReader([]byte("not a summary at all"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := ReadSummary(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
	// Truncated stream.
	d := gen.Porto(gen.Config{NumTrajectories: 5, MinLen: 20, MaxLen: 25, Seed: 5})
	s := Build(d, DefaultOptions(partition.Spatial, 0.1))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadSummary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

// TestReadSummaryRejectsWrongVersion: version 1 (the migration path) and
// version 2 load; 0 and 3 do not.
func TestReadSummaryRejectsWrongVersion(t *testing.T) {
	v1, err := os.ReadFile("testdata/golden-v1/spatial.ppqs")
	if err != nil {
		t.Fatal(err)
	}
	d := gen.Porto(gen.Config{NumTrajectories: 3, MinLen: 20, MaxLen: 22, Seed: 6})
	var buf bytes.Buffer
	if _, err := Build(d, DefaultOptions(partition.Spatial, 0.1)).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, blob := range [][]byte{v1, buf.Bytes()} {
		ver := binary.LittleEndian.Uint16(blob[4:])
		if _, err := ReadSummary(bytes.NewReader(blob)); err != nil {
			t.Fatalf("version %d: %v", ver, err)
		}
		for _, bad := range []uint16{0, 3} {
			b := bytes.Clone(blob)
			binary.LittleEndian.PutUint16(b[4:], bad)
			if _, err := ReadSummary(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("version %d blob relabelled %d: err = %v, want ErrBadFormat", ver, bad, err)
			}
		}
	}
}

// TestReadSummaryRejectsBadHeaders feeds crafted blobs whose header,
// counts or trajectory bit streams are out of range: each must fail with
// an error, never panic, allocate by the stored count, or load silently.
func TestReadSummaryRejectsBadHeaders(t *testing.T) {
	// One empty trajectory, so the blob ends with its entry and run
	// counts.
	base := func() *Summary {
		s := &Summary{
			Opts:  DefaultOptions(partition.Spatial, 0.1),
			Ticks: map[int]*TickSummary{},
			Trajs: map[traj.ID]*TrajSummary{7: {}},
		}
		s.Coder = cqc.NewCoder(s.Opts.Epsilon1, s.Opts.GS)
		return s
	}
	encode := func(t *testing.T, s *Summary) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := ReadSummary(bytes.NewReader(encode(t, base()))); err != nil {
		t.Fatalf("unmodified blob: %v", err)
	}

	opts := func(mut func(*Options)) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			s := base()
			mut(&s.Opts)
			return encode(t, s)
		}
	}
	// entries gives trajectory 7 one point per partition label in parts,
	// from tick 0, coded against a three-word global codebook, then
	// applies mut.
	entries := func(parts []int32, mut func(*Summary)) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			s := base()
			s.Book = twoWords()
			s.Book.Add(geo.Pt(0.25, -0.5))
			for _, p := range parts {
				s.maxLabel = max(s.maxLabel, int(p))
				s.Trajs[7].Entries = append(s.Trajs[7].Entries,
					PointEntry{Part: p, Word: 1, CQC: cqc.Code{Len: uint8(s.Coder.CodeBits())}})
			}
			mut(s)
			return encode(t, s)
		}
	}
	entry := func(mut func(*Summary)) func(*testing.T) []byte { return entries([]int32{0}, mut) }
	// stream edits bit k (MSB first) of the last trajectory's bit stream,
	// which ends the blob and is nbytes long.
	stream := func(parts []int32, nbytes, k int) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			b := entries(parts, func(*Summary) {})(t)
			b[len(b)-nbytes+k/8] ^= 0x80 >> (k % 8)
			return b
		}
	}
	// Stream lengths: a label and a run-length field per run (1 bit each
	// here), a 2-bit word and a CQC code per point, then the pad.
	one, two, same := []int32{0}, []int32{0, 1}, []int32{0, 0}
	cqcBits := base().Coder.CodeBits()
	oneBytes := (1 + 1 + 2 + cqcBits + 7) / 8
	twoBytes := (2*(1+1) + 2*(2+cqcBits) + 7) / 8 // two runs
	sameBytes := (1 + 1 + 2*(2+cqcBits) + 7) / 8  // one run
	for _, parts := range [][]int32{one, two, same} {
		if _, err := ReadSummary(bytes.NewReader(entries(parts, func(*Summary) {})(t))); err != nil {
			t.Fatalf("valid blob with parts %v: %v", parts, err)
		}
	}
	// noPredictionAt is the offset of the NoPrediction flag: magic,
	// version, K (one byte), ε₁, ε_p and the mode byte precede it. The
	// UseCQC flag and g_s come between it and FixedWords.
	const noPredictionAt = 4 + 2 + 1 + 8 + 8 + 1
	const fixedWordsAt = noPredictionAt + 1 + 1 + 8
	// The version-1 one-entry fixture feeds the v1 decoder's cases. After
	// FixedWords come two more option varints, the seed, two statistics
	// varints and two floats, then the global codebook; the blob ends with
	// an empty tick section (len-9), the trajectory count, ID, start and
	// entry count (len-5), and the entry's four one-byte fields: partition,
	// codeword (len-3), CQC length and CQC bits.
	const v1BookAt = fixedWordsAt + 1 + 2 + 8 + 2 + 16
	v1 := func(edit func([]byte) []byte) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			b, err := os.ReadFile("testdata/golden-v1/one-entry.ppqs")
			if err != nil {
				t.Fatal(err)
			}
			return edit(b)
		}
	}
	// v1Entry re-encodes the entry's partition and codeword as raw
	// varints.
	v1Entry := func(part, word uint64) func(*testing.T) []byte {
		return v1(func(b []byte) []byte {
			code := bytes.Clone(b[len(b)-2:])
			b = binary.AppendUvarint(b[:len(b)-4], part)
			b = binary.AppendUvarint(b, word)
			return append(b, code...)
		})
	}
	if _, err := ReadSummary(bytes.NewReader(v1(func(b []byte) []byte { return b })(t))); err != nil {
		t.Fatalf("unmodified version-1 blob: %v", err)
	}
	// swap replaces the first occurrence of old in a valid blob.
	swap := func(blob func(*testing.T) []byte, old, new []byte) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			b := blob(t)
			i := bytes.Index(b, old)
			if i < 0 {
				t.Fatalf("% x not in the blob", old)
			}
			return append(append(append([]byte(nil), b[:i]...), new...), b[i+len(old):]...)
		}
	}
	cases := []struct {
		name string
		blob func(*testing.T) []byte
	}{
		{name: "eps zero", blob: opts(func(o *Options) { o.Epsilon1 = 0 })},
		{name: "eps negative", blob: opts(func(o *Options) { o.Epsilon1 = -1 })},
		{name: "eps NaN", blob: opts(func(o *Options) { o.Epsilon1 = math.NaN() })},
		{name: "gs NaN", blob: opts(func(o *Options) { o.GS = math.NaN() })},
		{name: "gs +Inf", blob: opts(func(o *Options) { o.GS = math.Inf(1) })},
		{name: "eps/gs overflow", blob: opts(func(o *Options) { o.Epsilon1, o.GS = 1, 1e-12 })},
		{name: "huge K", blob: opts(func(o *Options) { o.K = 1 << 40 })},
		{name: "coefficients longer than K", blob: func(t *testing.T) []byte {
			s := base()
			s.Ticks[0] = &TickSummary{Coeffs: map[int]predict.Coefficients{0: make(predict.Coefficients, s.Opts.K+1)}}
			return encode(t, s)
		}},
		// The count is past maxTrajPoints: it is rejected before anything
		// is sized by it.
		{name: "huge entry count", blob: func(t *testing.T) []byte {
			b := encode(t, base())
			b = binary.AppendUvarint(b[:len(b)-2], 1<<61)
			return binary.AppendUvarint(b, 1)
		}},
		// Version 1 preallocates at most maxEntryPrealloc entries: the
		// count runs past the end of the blob, and the short read is the
		// error.
		{name: "huge entry count (v1)", blob: v1(func(b []byte) []byte {
			e := bytes.Clone(b[len(b)-4:])
			return append(binary.AppendUvarint(b[:len(b)-5], 1<<61), e...)
		})},
		{name: "codeword past the global book", blob: entry(func(s *Summary) {
			s.Trajs[7].Entries[0].Word = int32(s.Book.Len())
		})},
		{name: "codeword past the tick book", blob: entry(func(s *Summary) {
			s.Opts.FixedWords = 2
			s.Ticks[0] = &TickSummary{Coeffs: map[int]predict.Coefficients{}, Book: s.Book}
			s.Book = nil
			s.Trajs[7].Entries[0].Word = 3
		})},
		{name: "missing tick book", blob: entry(func(s *Summary) {
			s.Opts.FixedWords = 2
			s.Trajs[7].Entries[0].Word = 0 // no book: the word takes 0 bits
		})},
		// Version 1 stores words unchecked: the decoder's codebook lookup
		// (wordOf) rejects them.
		{name: "codeword past the global book (v1)", blob: v1Entry(0, 2)},
		{name: "codeword past the tick book (v1)", blob: v1(func(b []byte) []byte {
			book := bytes.Clone(b[v1BookAt : len(b)-9])
			tail := bytes.Clone(b[len(b)-8:])
			b = append(b[:v1BookAt], 0) // no global book
			b = append(b, 1, 0, 0)      // one tick: tick 0, no coefficients
			b = append(b, book...)      // and the two-word book
			b = append(b, tail...)
			b[fixedWordsAt] = 2
			b[len(b)-3] = 2
			return b
		})},
		{name: "missing tick book (v1)", blob: v1(func(b []byte) []byte {
			b[fixedWordsAt] = 2
			return b
		})},
		{name: "partition overflows int32", blob: v1Entry(1<<32, 0)},
		{name: "codeword overflows int32", blob: v1Entry(0, 1<<32)},
		{name: "max label overflows int32", blob: swap(entry(func(s *Summary) { s.maxLabel = math.MaxInt32 }),
			binary.AppendUvarint(nil, math.MaxInt32), binary.AppendUvarint(nil, 1<<32))},
		{name: "label past the max label", blob: stream(one, oneBytes, 0)},
		{name: "run past the trajectory", blob: stream(one, oneBytes, 1)},
		{name: "runs short of the trajectory", blob: stream(same, sameBytes, 1)},
		{name: "adjacent runs share a label", blob: stream(two, twoBytes, 2)},
		{name: "non-zero pad bits", blob: stream(one, oneBytes, 8*oneBytes-1)},
		{name: "trailing byte", blob: func(t *testing.T) []byte { return append(entry(func(*Summary) {})(t), 0) }},
		{name: "non-minimal varint", blob: func(t *testing.T) []byte {
			b := encode(t, base())
			return append(b[:len(b)-1], 0x80, 0) // the run count 0 in two bytes
		}},
		{name: "flag byte 2", blob: func(t *testing.T) []byte {
			b := encode(t, base())
			b[noPredictionAt] = 2
			return b
		}},
		{name: "ticks out of order", blob: func(t *testing.T) []byte {
			s := base()
			s.Ticks[3] = &TickSummary{Coeffs: map[int]predict.Coefficients{}}
			s.Ticks[4] = &TickSummary{Coeffs: map[int]predict.Coefficients{}}
			b := encode(t, s)
			i := bytes.Index(b, []byte{2, 3, 0, 0, 4, 0, 0}) // count, then (tick, no labels, no book) twice
			if i < 0 {
				t.Fatal("tick section not found")
			}
			b[i+1], b[i+4] = 4, 3
			return b
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadSummary(bytes.NewReader(c.blob(t)))
			if err == nil {
				t.Fatal("loaded without error")
			}
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
		})
	}
}

// TestReadSummaryTruncationIsBadFormat cuts a real summary of each
// version at every length short of the whole: each prefix must fail as
// ErrBadFormat, with the short read still visible underneath.
func TestReadSummaryTruncationIsBadFormat(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 3, MinLen: 10, MaxLen: 14, Seed: 8})
	var buf bytes.Buffer
	if _, err := Build(d, DefaultOptions(partition.Spatial, 0.1)).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile("testdata/golden-v1/spatial.ppqs")
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range [][]byte{buf.Bytes(), v1} {
		ver := binary.LittleEndian.Uint16(blob[4:])
		for n := 0; n < len(blob); n++ {
			_, err := ReadSummary(bytes.NewReader(blob[:n]))
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("version %d prefix %d/%d: err = %v, want ErrBadFormat", ver, n, len(blob), err)
			}
			if n >= len(summaryMagic) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("version %d prefix %d/%d: err = %v lost the short read", ver, n, len(blob), err)
			}
		}
	}
}

func twoWords() *quant.Codebook {
	book := quant.NewCodebook(1)
	book.Add(geo.Pt(0.5, 0.5))
	book.Add(geo.Pt(-0.5, 0.25))
	return book
}

// FuzzReadSummary feeds arbitrary bytes to ReadSummary, which the server
// runs on every segment file it opens: a corrupt file must come back as
// an error, never a panic. A version-2 blob that loads must be the
// canonical encoding of what it loaded: WriteTo gives it back byte for
// byte, so no two encodings of one summary both load. The seeds include
// every single-bit flip of the header and of the last trajectories of
// the version-2 fixtures (the middle is skipped for time: each load
// rebuilds the CQC tables).
func FuzzReadSummary(f *testing.F) {
	d := gen.Porto(gen.Config{NumTrajectories: 4, MinLen: 8, MaxLen: 12, Seed: 9})
	for _, opts := range []Options{
		DefaultOptions(partition.Spatial, 0.1),
		{K: 3, Mode: partition.Spatial, EpsilonP: 0.1, FixedWords: 4},
	} {
		var buf bytes.Buffer
		if _, err := Build(d, opts).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	golden, err := filepath.Glob("testdata/golden-v*/*.ppqs")
	if err != nil {
		f.Fatal(err)
	}
	const head, tail = 64, 128
	for _, path := range golden {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if filepath.Base(filepath.Dir(path)) != "golden-v2" {
			continue
		}
		for k := 0; k < 8*len(blob); k++ {
			if k == 8*head && len(blob) > head+tail {
				k = 8 * (len(blob) - tail)
			}
			b := bytes.Clone(blob)
			b[k/8] ^= 0x80 >> (k % 8)
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := ReadSummary(bytes.NewReader(blob))
		if err != nil || binary.LittleEndian.Uint16(blob[4:]) != summaryVersion {
			return // any error is fine; a panic is not
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding an accepted blob: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  % x\n out % x", blob, buf.Bytes())
		}
	})
}

// TestSerializeSizeReasonable: the file is the paper's accounting
// (SizeBytes) plus the framing the accounting leaves out, which is
// bounded per summary, per tick, per coefficient set and per trajectory:
//   - per summary: magic, version, options, build statistics and the
//     section counts, at most 96 bytes;
//   - per tick: its tick, partition count and codebook length varints,
//     at most 4 bytes;
//   - per coefficient set: its label and count varints, plus a third
//     varint byte for a coefficient of magnitude 8 or more, at most 3
//     bytes here (K = 3 and such coefficients are rare);
//   - per trajectory: ID, start, point and run count varints and the pad
//     byte, less the 4 bytes the accounting gives its start tick, at
//     most 8 bytes. Runs cost label + BitsFor(n) bits against the
//     accounting's label + 16, so they add nothing.
func TestSerializeSizeReasonable(t *testing.T) {
	const perSummary, perTick, perCoeffSet, perTraj = 96, 4, 3, 8
	d := gen.Porto(gen.Config{NumTrajectories: 20, MinLen: 40, MaxLen: 60, Seed: 7})
	for name, opts := range map[string]Options{
		"spatial":     DefaultOptions(partition.Spatial, 0.1),
		"autocorr":    DefaultOptions(partition.Autocorr, 0.2),
		"fixed-words": {K: 3, Mode: partition.Spatial, EpsilonP: 0.1, FixedWords: 8},
	} {
		s := Build(d, opts)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		coeffSets := 0
		for _, ts := range s.Ticks {
			coeffSets += len(ts.Coeffs)
		}
		bound := s.SizeBytes() + perSummary + perTick*len(s.Ticks) + perCoeffSet*coeffSets + perTraj*len(s.Trajs)
		if buf.Len() > bound {
			t.Fatalf("%s: file %d bytes > accounted %d + framing = %d", name, buf.Len(), s.SizeBytes(), bound)
		}
		if buf.Len() >= d.RawBytes() {
			t.Fatalf("%s: file %d bytes should still beat raw %d", name, buf.Len(), d.RawBytes())
		}
	}
}
