package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ppqtraj/internal/cqc"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/predict"
	"ppqtraj/internal/quant"
	"ppqtraj/internal/traj"
)

// Binary summary format. The reconstruction caches are NOT serialized —
// a loaded summary rebuilds them by running the decoder (Decode), which
// doubles as an integrity check: the summary on disk is exactly the
// self-contained parameter set ({P_j[t]}, C, {b_i^t}, CQC).
//
//	magic "PPQS" | version u16 | options | codebook | ticks | trajectories
//
// All integers are little-endian; varint is unsigned LEB128 via
// binary.AppendUvarint.

const (
	summaryMagic   = "PPQS"
	summaryVersion = 1

	// Sanity caps on header fields and counts read from a blob, so a
	// corrupt file fails with an error instead of a huge allocation or a
	// panic. Real summaries sit far below each: k is 3 by default, ε₁/g_s
	// is a small ratio, and a trajectory segment holds a few hundred points.
	maxLagOrder      = 64
	maxCQCHalfCells  = 1 << 20
	maxEntryPrealloc = 1 << 16
)

// ErrBadFormat is returned when a summary blob fails validation.
var ErrBadFormat = errors.New("core: malformed summary encoding")

type countingWriter struct {
	w *bufio.Writer
	n int
}

func (cw *countingWriter) u8(v uint8) { cw.w.WriteByte(v); cw.n++ }
func (cw *countingWriter) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	cw.w.Write(b[:])
	cw.n += 2
}
func (cw *countingWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	cw.w.Write(b[:])
	cw.n += 4
}
func (cw *countingWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	cw.w.Write(b[:])
	cw.n += 8
}
func (cw *countingWriter) f64(v float64) { cw.u64(math.Float64bits(v)) }
func (cw *countingWriter) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	cw.w.Write(b[:n])
	cw.n += n
}
func (cw *countingWriter) point(p geo.Point) { cw.f64(p.X); cw.f64(p.Y) }

type reader struct {
	r *bufio.Reader
}

func (rd *reader) u8() (uint8, error) { return rd.r.ReadByte() }
func (rd *reader) u16() (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(rd.r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}
func (rd *reader) u32() (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(rd.r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
func (rd *reader) u64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(rd.r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
func (rd *reader) f64() (float64, error) {
	v, err := rd.u64()
	return math.Float64frombits(v), err
}
func (rd *reader) uvarint() (uint64, error) { return binary.ReadUvarint(rd.r) }
func (rd *reader) point() (geo.Point, error) {
	x, err := rd.f64()
	if err != nil {
		return geo.Point{}, err
	}
	y, err := rd.f64()
	return geo.Point{X: x, Y: y}, err
}

func writeBook(cw *countingWriter, book *quant.Codebook) {
	if book == nil {
		cw.uvarint(0)
		return
	}
	cw.uvarint(uint64(book.Len() + 1))
	for _, wd := range book.Words {
		cw.point(wd)
	}
}

func readBook(rd *reader, cellSize float64) (*quant.Codebook, error) {
	n, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	book := quant.NewCodebook(cellSize)
	for i := uint64(0); i < n-1; i++ {
		p, err := rd.point()
		if err != nil {
			return nil, err
		}
		book.Add(p)
	}
	return book, nil
}

// WriteTo serializes the summary. It returns the bytes written.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	cw.w.WriteString(summaryMagic)
	cw.n += len(summaryMagic)
	cw.u16(summaryVersion)

	// Options.
	o := s.Opts
	cw.uvarint(uint64(o.K))
	cw.f64(o.Epsilon1)
	cw.f64(o.EpsilonP)
	cw.u8(uint8(o.Mode))
	boolByte := func(b bool) uint8 {
		if b {
			return 1
		}
		return 0
	}
	cw.u8(boolByte(o.NoPrediction))
	cw.u8(boolByte(o.UseCQC))
	cw.f64(o.GS)
	cw.uvarint(uint64(o.FixedWords))
	cw.uvarint(uint64(o.AutocorrWindow))
	cw.uvarint(uint64(o.MaxPartitions))
	cw.u64(uint64(o.Seed))

	// Build statistics that feed the size accounting and MAE (they cannot
	// be recomputed without the original data).
	cw.uvarint(uint64(s.partChanges))
	cw.uvarint(uint64(s.maxLabel))
	cw.f64(s.sumAbsErr)
	cw.f64(s.ObservedMaxErr)

	// Global codebook.
	writeBook(cw, s.Book)

	// Ticks. Coefficients are on the Q5.10 grid
	// (predict.QuantizeCoefficients), so they serialize as zig-zag varints
	// of the grid index, not full floats.
	ticks := s.SortedTicks()
	cw.uvarint(uint64(len(ticks)))
	for _, t := range ticks {
		ts := s.Ticks[t]
		cw.uvarint(uint64(t))
		cw.uvarint(uint64(len(ts.Coeffs)))
		for _, label := range sortedCoeffLabels(ts.Coeffs) {
			cw.uvarint(uint64(label))
			cs := ts.Coeffs[label]
			cw.uvarint(uint64(len(cs)))
			for _, c := range cs {
				g := int64(math.Round(c * 1024))
				cw.uvarint(uint64((g << 1) ^ (g >> 63))) // zig-zag
			}
		}
		writeBook(cw, ts.Book)
	}

	// Trajectories.
	ids := s.TrajIDs()
	cw.uvarint(uint64(len(ids)))
	for _, id := range ids {
		tr := s.Trajs[id]
		cw.uvarint(uint64(id))
		cw.uvarint(uint64(tr.Start))
		cw.uvarint(uint64(len(tr.Entries)))
		for _, e := range tr.Entries {
			cw.uvarint(uint64(e.Part))
			cw.uvarint(uint64(e.Word))
			cw.u8(uint8(e.CQC.Len))
			cw.uvarint(e.CQC.Bits)
		}
	}
	if err := bw.Flush(); err != nil {
		return int64(cw.n), err
	}
	return int64(cw.n), nil
}

func sortedCoeffLabels(m map[int]predict.Coefficients) []int {
	out := make([]int, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	for i := 1; i < len(out); i++ { // insertion sort: label sets are small
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ReadSummary deserializes a summary written by WriteTo and rebuilds its
// reconstruction caches by replaying the decoder. Any inconsistency in
// the stored parameters, and any read that fails or runs out of bytes
// (a truncated file), is an ErrBadFormat error; the underlying read
// error stays matchable with errors.Is.
func ReadSummary(r io.Reader) (*Summary, error) {
	s, err := readSummary(&reader{r: bufio.NewReader(r)})
	if err != nil && !errors.Is(err, ErrBadFormat) {
		return nil, fmt.Errorf("%w: %w", ErrBadFormat, err)
	}
	return s, err
}

func readSummary(rd *reader) (*Summary, error) {
	magic := make([]byte, len(summaryMagic))
	if _, err := io.ReadFull(rd.r, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != summaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	ver, err := rd.u16()
	if err != nil {
		return nil, err
	}
	if ver != summaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, ver)
	}

	var o Options
	k, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	if k > maxLagOrder {
		return nil, fmt.Errorf("%w: lag order K=%d", ErrBadFormat, k)
	}
	o.K = int(k)
	if o.Epsilon1, err = rd.f64(); err != nil {
		return nil, err
	}
	if o.EpsilonP, err = rd.f64(); err != nil {
		return nil, err
	}
	mode, err := rd.u8()
	if err != nil {
		return nil, err
	}
	o.Mode = partition.Mode(mode)
	np, err := rd.u8()
	if err != nil {
		return nil, err
	}
	o.NoPrediction = np != 0
	uc, err := rd.u8()
	if err != nil {
		return nil, err
	}
	o.UseCQC = uc != 0
	if o.GS, err = rd.f64(); err != nil {
		return nil, err
	}
	fw, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	o.FixedWords = int(fw)
	aw, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	o.AutocorrWindow = int(aw)
	mp, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	o.MaxPartitions = int(mp)
	seed, err := rd.u64()
	if err != nil {
		return nil, err
	}
	o.Seed = int64(seed)
	if math.IsNaN(o.Epsilon1) || math.IsInf(o.Epsilon1, 0) || math.IsNaN(o.GS) || math.IsInf(o.GS, 0) {
		return nil, fmt.Errorf("%w: non-finite ε₁=%v g_s=%v", ErrBadFormat, o.Epsilon1, o.GS)
	}

	s := &Summary{
		Opts:  o,
		Ticks: make(map[int]*TickSummary),
		Trajs: make(map[traj.ID]*TrajSummary),
	}
	pc, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	s.partChanges = int(pc)
	ml, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	s.maxLabel = int(ml)
	if s.sumAbsErr, err = rd.f64(); err != nil {
		return nil, err
	}
	if s.ObservedMaxErr, err = rd.f64(); err != nil {
		return nil, err
	}
	cell := o.Epsilon1
	if cell <= 0 {
		cell = 1
	}
	if s.Book, err = readBook(rd, cell); err != nil {
		return nil, err
	}
	if o.UseCQC {
		eps := o.Epsilon1
		if o.FixedWords > 0 && eps <= 0 {
			eps = 16 * o.GS
		}
		if !(eps > 0 && o.GS > 0 && eps/o.GS <= maxCQCHalfCells) {
			return nil, fmt.Errorf("%w: UseCQC with ε₁=%v g_s=%v", ErrBadFormat, eps, o.GS)
		}
		s.Coder = cqc.NewCoder(eps, o.GS)
	}

	nTicks, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nTicks; i++ {
		t, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		ts := &TickSummary{Tick: int(t), Coeffs: make(map[int]predict.Coefficients)}
		nc, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nc; j++ {
			label, err := rd.uvarint()
			if err != nil {
				return nil, err
			}
			cl, err := rd.uvarint()
			if err != nil {
				return nil, err
			}
			if cl > uint64(o.K) {
				return nil, fmt.Errorf("%w: %d coefficients for lag order %d", ErrBadFormat, cl, o.K)
			}
			cs := make(predict.Coefficients, cl)
			for c := range cs {
				z, err := rd.uvarint()
				if err != nil {
					return nil, err
				}
				g := int64(z>>1) ^ -int64(z&1) // un-zig-zag
				cs[c] = float64(g) / 1024
			}
			ts.Coeffs[int(label)] = cs
		}
		if ts.Book, err = readBook(rd, 1); err != nil {
			return nil, err
		}
		s.Ticks[ts.Tick] = ts
	}

	nTraj, err := rd.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nTraj; i++ {
		id, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		start, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		n, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		tr := &TrajSummary{Start: int(start), Entries: make([]PointEntry, 0, min(n, maxEntryPrealloc))}
		for e := uint64(0); e < n; e++ {
			part, err := rd.uvarint()
			if err != nil {
				return nil, err
			}
			word, err := rd.uvarint()
			if err != nil {
				return nil, err
			}
			cl, err := rd.u8()
			if err != nil {
				return nil, err
			}
			bits, err := rd.uvarint()
			if err != nil {
				return nil, err
			}
			if part > math.MaxInt32 || word > math.MaxInt32 {
				return nil, fmt.Errorf("%w: partition %d / codeword %d overflow int32", ErrBadFormat, part, word)
			}
			tr.Entries = append(tr.Entries, PointEntry{
				Part: int32(part), Word: int32(word),
				CQC: cqc.Code{Bits: bits, Len: cl},
			})
		}
		s.Trajs[traj.ID(id)] = tr
	}

	// Rebuild the reconstruction caches through the decoder — the loaded
	// summary must be fully self-contained.
	for _, id := range s.TrajIDs() {
		rec, err := s.Decode(id)
		if err != nil {
			return nil, fmt.Errorf("%w: decoding trajectory %d after load: %v", ErrBadFormat, id, err)
		}
		tr := s.Trajs[id]
		tr.Recon = rec
		s.NumPoints += len(rec)
	}
	return s, nil
}
