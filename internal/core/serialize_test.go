package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

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
	return got
}

func TestSerializeRoundTripPPQS(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 15, MinLen: 30, MaxLen: 50, Seed: 3})
	s := Build(d, DefaultOptions(partition.Spatial, 0.1))
	got := roundTrip(t, s)
	if got.NumPoints != s.NumPoints {
		t.Fatalf("NumPoints %d vs %d", got.NumPoints, s.NumPoints)
	}
	// The loaded summary's decoder-rebuilt reconstructions must be
	// bit-identical to the original build's.
	for _, id := range s.TrajIDs() {
		a, b := s.Trajs[id], got.Trajs[id]
		if b == nil || a.Start != b.Start || len(a.Recon) != len(b.Recon) {
			t.Fatalf("trajectory %d shape mismatch", id)
		}
		for i := range a.Recon {
			if a.Recon[i] != b.Recon[i] {
				t.Fatalf("trajectory %d point %d: %v vs %v", id, i, a.Recon[i], b.Recon[i])
			}
		}
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
		s := Build(d, opts)
		got := roundTrip(t, s)
		for _, id := range s.TrajIDs() {
			a, b := s.Trajs[id], got.Trajs[id]
			for i := range a.Recon {
				if a.Recon[i] != b.Recon[i] {
					t.Fatalf("%s: trajectory %d point %d mismatch", name, id, i)
				}
			}
		}
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

func TestReadSummaryRejectsWrongVersion(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 3, MinLen: 20, MaxLen: 22, Seed: 6})
	s := Build(d, DefaultOptions(partition.Spatial, 0.1))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 0xFF // corrupt the version field
	if _, err := ReadSummary(bytes.NewReader(b)); err == nil {
		t.Fatal("expected error for unsupported version")
	}
}

// TestReadSummaryRejectsBadHeaders feeds crafted blobs whose header or
// counts are out of range: each must fail with an error, never panic,
// allocate by the stored count, or load silently.
func TestReadSummaryRejectsBadHeaders(t *testing.T) {
	// One empty trajectory, so the blob ends with its entry count.
	base := func() *Summary {
		return &Summary{
			Opts:  DefaultOptions(partition.Spatial, 0.1),
			Ticks: map[int]*TickSummary{},
			Trajs: map[traj.ID]*TrajSummary{7: {}},
		}
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
	// entry gives trajectory 7 one point at tick 0 coded against a
	// two-word global codebook, then applies mut.
	entry := func(mut func(*Summary)) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			s := base()
			s.Book = twoWords()
			s.Trajs[7].Entries = []PointEntry{{Word: 1}}
			mut(s)
			return encode(t, s)
		}
	}
	if _, err := ReadSummary(bytes.NewReader(entry(func(*Summary) {})(t))); err != nil {
		t.Fatalf("valid one-entry blob: %v", err)
	}
	// tailEntry re-encodes that entry's partition and codeword as raw
	// uvarints, past what int32 holds. The entry is the blob's last four
	// bytes: part, word, CQC length and CQC bits, one byte each.
	tailEntry := func(part, word uint64) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			b := entry(func(s *Summary) { s.Trajs[7].Entries[0].Word = 0 })(t)
			b = binary.AppendUvarint(b[:len(b)-4], part)
			b = binary.AppendUvarint(b, word)
			return append(b, 0, 0)
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
		// The count runs past the end of the blob: the short read is the
		// error, and it is ErrBadFormat too.
		{name: "huge entry count", blob: func(t *testing.T) []byte {
			b := encode(t, base())
			return binary.AppendUvarint(b[:len(b)-1], 1<<61)
		}},
		{name: "codeword past the global book", blob: entry(func(s *Summary) {
			s.Trajs[7].Entries[0].Word = int32(s.Book.Len())
		})},
		{name: "codeword past the tick book", blob: entry(func(s *Summary) {
			s.Opts.FixedWords = 2
			s.Ticks[0] = &TickSummary{Coeffs: map[int]predict.Coefficients{}, Book: twoWords()}
			s.Trajs[7].Entries[0].Word = 2
		})},
		{name: "missing tick book", blob: entry(func(s *Summary) { s.Opts.FixedWords = 2 })},
		{name: "partition overflows int32", blob: tailEntry(1<<32, 0)},
		{name: "codeword overflows int32", blob: tailEntry(0, 1<<32)},
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

// TestReadSummaryTruncationIsBadFormat cuts a real summary at every
// length short of the whole: each prefix must fail as ErrBadFormat, with
// the short read still visible underneath.
func TestReadSummaryTruncationIsBadFormat(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 3, MinLen: 10, MaxLen: 14, Seed: 8})
	var buf bytes.Buffer
	if _, err := Build(d, DefaultOptions(partition.Spatial, 0.1)).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for n := 0; n < len(blob); n++ {
		_, err := ReadSummary(bytes.NewReader(blob[:n]))
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrBadFormat", n, len(blob), err)
		}
		if n >= len(summaryMagic) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix %d/%d: err = %v lost the short read", n, len(blob), err)
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
// an error, never a panic.
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
	f.Fuzz(func(t *testing.T, blob []byte) {
		_, _ = ReadSummary(bytes.NewReader(blob)) // any error is fine; a panic is not
	})
}

func TestSerializeSizeReasonable(t *testing.T) {
	// The wire size should be in the same ballpark as the accounted
	// summary size (wire uses varints and full floats, so allow slack).
	d := gen.Porto(gen.Config{NumTrajectories: 20, MinLen: 40, MaxLen: 60, Seed: 7})
	s := Build(d, DefaultOptions(partition.Spatial, 0.1))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 8*s.SizeBytes() {
		t.Fatalf("wire size %d ≫ accounted size %d", buf.Len(), s.SizeBytes())
	}
	if buf.Len() >= d.RawBytes() {
		t.Fatalf("wire size %d should still beat raw %d", buf.Len(), d.RawBytes())
	}
}
