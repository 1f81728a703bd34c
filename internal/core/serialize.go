package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"ppqtraj/internal/codec"
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
//	magic "PPQS" | version u16 | options | build stats | codebook | ticks | trajectories
//
// All integers are little-endian; varint is unsigned LEB128 via
// binary.AppendUvarint. WriteTo writes version 2; ReadSummary also reads
// version 1, which differs only in the trajectory section.
//
//	options      K varint, ε₁ f64, ε_p f64, mode u8, NoPrediction u8,
//	             UseCQC u8, g_s f64, FixedWords, AutocorrWindow and
//	             MaxPartitions varints, Seed u64
//	build stats  partition changes varint, max label varint, Σ|error| f64,
//	             max error f64
//	codebook     varint |C|+1 (0: none), then |C| × (x f64, y f64)
//	ticks        varint count, then per tick in ascending order: tick
//	             varint, partition count varint, per partition in
//	             ascending label order (label varint, coefficient count
//	             varint, each coefficient as the zig-zag varint of its
//	             Q5.10 grid index), then the tick's codebook
//	trajectories varint count, then per trajectory in ascending ID order:
//
//	v2: id, start, n and run-count varints, then one MSB-first bit stream
//	    padded with zero bits to a byte boundary:
//	      per partition run: label at BitsFor(max label+1) bits, run
//	        length−1 at BitsFor(n) bits;
//	      per point: codeword index at BitsFor(|C|) bits (|C| of the
//	        tick's codebook in FixedWords mode);
//	      per point: CQC code at Coder.CodeBits() bits (0 without CQC).
//	v1: id, start and n varints, then per point: partition varint,
//	    codeword varint, CQC length u8, CQC bits varint.
//
// A version-2 blob loads only in its canonical form — minimal varints,
// 0/1 flags, strictly ascending ticks, labels and IDs, exact coefficient
// grid indexes, maximal runs, zero pad bits, no trailing bytes — so a
// blob that loads re-encodes byte for byte. Version 1 is read as it was
// written.

const (
	summaryMagic   = "PPQS"
	summaryVersion = 2

	// Sanity caps on header fields and counts read from a blob, so a
	// corrupt file fails with an error instead of a huge allocation or a
	// panic. Real summaries sit far below each: k is 3 by default, ε₁/g_s
	// is a small ratio, and a trajectory segment holds a few hundred points.
	maxLagOrder      = 64
	maxCQCHalfCells  = 1 << 20
	maxEntryPrealloc = 1 << 16
	maxTrajPoints    = 1 << 31

	// maxExactGrid bounds a coefficient's Q5.10 grid index in version 2:
	// past 2⁵³ the float64 coefficient no longer round-trips to it.
	maxExactGrid = 1 << 53
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
func (cw *countingWriter) bytes(b []byte) {
	cw.w.Write(b)
	cw.n += len(b)
}

type reader struct {
	r *bufio.Reader
	// strict rejects encodings the writer never produces (version 2).
	strict bool
	// scratch backs the trajectory bit streams.
	scratch []byte
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

// uvarint reads an unsigned LEB128 varint; in strict mode a varint with
// a redundant zero final byte is ErrBadFormat.
func (rd *reader) uvarint() (uint64, error) {
	var x uint64
	for i := 0; ; i++ {
		b, err := rd.r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrBadFormat)
		}
		if b < 0x80 {
			if rd.strict && b == 0 && i > 0 {
				return 0, fmt.Errorf("%w: non-minimal varint", ErrBadFormat)
			}
			return x | uint64(b)<<(7*i), nil
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
}

// flag reads a bool byte; in strict mode only 0 and 1 are accepted.
func (rd *reader) flag() (bool, error) {
	b, err := rd.u8()
	if err == nil && rd.strict && b > 1 {
		err = fmt.Errorf("%w: flag byte %d", ErrBadFormat, b)
	}
	return b != 0, err
}

// bytes reads the next n bytes into the reader's scratch, growing it only
// as bytes arrive, so a corrupt length cannot force a large allocation.
// The result is valid until the next call.
func (rd *reader) bytes(n int) ([]byte, error) {
	const chunk = 64 << 10
	buf := rd.scratch[:0]
	for len(buf) < n {
		k := min(n-len(buf), chunk)
		buf = slices.Grow(buf, k)
		m, err := io.ReadFull(rd.r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+m]
		if err != nil {
			if len(buf) > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	rd.scratch = buf
	return buf, nil
}
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
	if s.maxLabel < 0 || s.maxLabel > math.MaxInt32 {
		return 0, fmt.Errorf("core: max partition label %d outside int32", s.maxLabel)
	}
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
	var bits codec.BitWriter
	for _, id := range ids {
		tr := s.Trajs[id]
		runs, err := s.packEntries(&bits, tr.Start, tr.Entries)
		if err != nil {
			return int64(cw.n), fmt.Errorf("core: writing trajectory %d: %w", id, err)
		}
		cw.uvarint(uint64(id))
		cw.uvarint(uint64(tr.Start))
		cw.uvarint(uint64(len(tr.Entries)))
		cw.uvarint(uint64(runs))
		cw.bytes(bits.Bytes())
	}
	if err := bw.Flush(); err != nil {
		return int64(cw.n), err
	}
	return int64(cw.n), nil
}

// bookLen is the size of a possibly absent codebook.
func bookLen(b *quant.Codebook) int {
	if b == nil {
		return 0
	}
	return b.Len()
}

// cqcBits is the width of every stored CQC code: CodeBits of the
// summary's coder, 0 without CQC.
func (s *Summary) cqcBits() int {
	if s.Coder == nil {
		return 0
	}
	return s.Coder.CodeBits()
}

// packEntries resets w and packs one trajectory's entries into it as the
// format-2 bit stream, returning the number of partition runs. A field
// that does not fit its width is an error: the stream would not decode
// to the same entries.
func (s *Summary) packEntries(w *codec.BitWriter, start int, entries []PointEntry) (int, error) {
	w.Reset()
	if len(entries) > 0 && s.Opts.UseCQC != (s.Coder != nil) {
		return 0, errors.New("the summary's UseCQC option and CQC coder disagree")
	}
	labelBits, runBits := codec.BitsFor(s.maxLabel+1), codec.BitsFor(len(entries))
	runs := 0
	for i := 0; i < len(entries); {
		part := entries[i].Part
		if part < 0 || int(part) > s.maxLabel {
			return 0, fmt.Errorf("partition %d outside [0, %d]", part, s.maxLabel)
		}
		j := i + 1
		for j < len(entries) && entries[j].Part == part {
			j++
		}
		w.WriteBits(uint64(part), labelBits)
		w.WriteBits(uint64(j-i-1), runBits)
		runs++
		i = j
	}
	width := codec.BitsFor(bookLen(s.Book))
	for i, e := range entries {
		if s.Opts.FixedWords > 0 {
			width = codec.BitsFor(bookLen(s.bookAt(start + i)))
		}
		if e.Word < 0 || uint64(e.Word)>>width != 0 {
			return 0, fmt.Errorf("codeword %d does not fit %d bits at tick %d", e.Word, width, start+i)
		}
		w.WriteBits(uint64(e.Word), width)
	}
	width = s.cqcBits()
	for i, e := range entries {
		if int(e.CQC.Len) != width || e.CQC.Bits>>width != 0 {
			return 0, fmt.Errorf("CQC code %v at tick %d is not %d bits", e.CQC, start+i, width)
		}
		w.WriteBits(e.CQC.Bits, width)
	}
	return runs, nil
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
	if ver != 1 && ver != summaryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, ver)
	}
	rd.strict = ver >= 2

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
	if o.NoPrediction, err = rd.flag(); err != nil {
		return nil, err
	}
	if o.UseCQC, err = rd.flag(); err != nil {
		return nil, err
	}
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
	if rd.strict && ml > math.MaxInt32 {
		return nil, fmt.Errorf("%w: max partition label %d overflows int32", ErrBadFormat, ml)
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
	var prevTick, prevLabel int
	for i := uint64(0); i < nTicks; i++ {
		t, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		if rd.strict && i > 0 && int(t) <= prevTick {
			return nil, fmt.Errorf("%w: tick %d after tick %d", ErrBadFormat, int(t), prevTick)
		}
		prevTick = int(t)
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
			if rd.strict && j > 0 && int(label) <= prevLabel {
				return nil, fmt.Errorf("%w: tick %d: label %d after label %d", ErrBadFormat, t, int(label), prevLabel)
			}
			prevLabel = int(label)
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
				if rd.strict && (g > maxExactGrid || g < -maxExactGrid) {
					return nil, fmt.Errorf("%w: coefficient grid index %d", ErrBadFormat, g)
				}
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
	if rd.strict {
		err = rd.trajsV2(s, nTraj)
	} else {
		err = rd.trajsV1(s, nTraj)
	}
	if err != nil {
		return nil, err
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

// trajsV1 reads version 1's trajectory section: four byte-aligned fields
// per point. It is kept only to open files written before version 2.
func (rd *reader) trajsV1(s *Summary, nTraj uint64) error {
	for i := uint64(0); i < nTraj; i++ {
		id, err := rd.uvarint()
		if err != nil {
			return err
		}
		start, err := rd.uvarint()
		if err != nil {
			return err
		}
		n, err := rd.uvarint()
		if err != nil {
			return err
		}
		tr := &TrajSummary{Start: int(start), Entries: make([]PointEntry, 0, min(n, maxEntryPrealloc))}
		for e := uint64(0); e < n; e++ {
			part, err := rd.uvarint()
			if err != nil {
				return err
			}
			word, err := rd.uvarint()
			if err != nil {
				return err
			}
			cl, err := rd.u8()
			if err != nil {
				return err
			}
			bits, err := rd.uvarint()
			if err != nil {
				return err
			}
			if part > math.MaxInt32 || word > math.MaxInt32 {
				return fmt.Errorf("%w: partition %d / codeword %d overflow int32", ErrBadFormat, part, word)
			}
			tr.Entries = append(tr.Entries, PointEntry{
				Part: int32(part), Word: int32(word),
				CQC: cqc.Code{Bits: bits, Len: cl},
			})
		}
		s.Trajs[traj.ID(id)] = tr
	}
	return nil
}

// trajsV2 reads version 2's trajectory section (see the format comment)
// and accepts only what packEntries writes.
func (rd *reader) trajsV2(s *Summary, nTraj uint64) error {
	labelBits, cqcBits := codec.BitsFor(s.maxLabel+1), s.cqcBits()
	var prev uint64
	for i := uint64(0); i < nTraj; i++ {
		var hdr [4]uint64 // id, start, n, runs
		for k := range hdr {
			v, err := rd.uvarint()
			if err != nil {
				return err
			}
			hdr[k] = v
		}
		id, start, n, runs := hdr[0], hdr[1], hdr[2], hdr[3]
		switch {
		case id > math.MaxUint32 || i > 0 && id <= prev:
			return fmt.Errorf("%w: trajectory %d after %d", ErrBadFormat, id, prev)
		case n > maxTrajPoints || start > math.MaxInt64-n:
			return fmt.Errorf("%w: trajectory %d: %d points from tick %d", ErrBadFormat, id, n, start)
		case runs > n || n > 0 && runs == 0:
			return fmt.Errorf("%w: trajectory %d: %d partition runs for %d points", ErrBadFormat, id, runs, n)
		}
		prev = id
		first := int(start)

		// Size the stream before reading it. Every point needs a
		// codebook to index, so n is bounded by the stored ticks
		// (FixedWords) or the point costs at least one bit.
		runBits := codec.BitsFor(int(n))
		total := int(runs) * (labelBits + runBits)
		total += int(n) * cqcBits
		if s.Opts.FixedWords > 0 {
			if n > uint64(len(s.Ticks)) {
				return fmt.Errorf("%w: trajectory %d: %d points over %d ticks", ErrBadFormat, id, n, len(s.Ticks))
			}
			for t := first; t < first+int(n); t++ {
				total += codec.BitsFor(bookLen(s.bookAt(t)))
			}
		} else if n > 0 {
			if bookLen(s.Book) == 0 {
				return fmt.Errorf("%w: trajectory %d has points but no codebook", ErrBadFormat, id)
			}
			total += int(n) * codec.BitsFor(s.Book.Len())
		}
		buf, err := rd.bytes((total + 7) / 8)
		if err != nil {
			return err
		}
		br := codec.NewBitReader(buf, -1)
		entries := make([]PointEntry, n)
		pos, prevPart := 0, -1
		for r := uint64(0); r < runs; r++ {
			label, _ := br.ReadBits(labelBits)
			length, _ := br.ReadBits(runBits)
			switch {
			case label > uint64(s.maxLabel) || int(label) == prevPart:
				return fmt.Errorf("%w: trajectory %d: run label %d (max %d, previous %d)", ErrBadFormat, id, label, s.maxLabel, prevPart)
			case length >= uint64(len(entries)-pos):
				return fmt.Errorf("%w: trajectory %d: runs longer than its %d points", ErrBadFormat, id, n)
			}
			for end := pos + int(length) + 1; pos < end; pos++ {
				entries[pos].Part = int32(label)
			}
			prevPart = int(label)
		}
		if pos != len(entries) {
			return fmt.Errorf("%w: trajectory %d: runs cover %d of %d points", ErrBadFormat, id, pos, n)
		}
		size, width := bookLen(s.Book), codec.BitsFor(bookLen(s.Book))
		for k := range entries {
			if s.Opts.FixedWords > 0 {
				size = bookLen(s.bookAt(first + k))
				width = codec.BitsFor(size)
			}
			word, _ := br.ReadBits(width)
			if word >= uint64(size) {
				return fmt.Errorf("%w: trajectory %d: codeword %d outside a %d-word book at tick %d", ErrBadFormat, id, word, size, first+k)
			}
			entries[k].Word = int32(word)
		}
		for k := range entries {
			entries[k].CQC.Bits, _ = br.ReadBits(cqcBits)
			entries[k].CQC.Len = uint8(cqcBits)
		}
		if pad, _ := br.ReadBits(br.Remaining()); pad != 0 {
			return fmt.Errorf("%w: trajectory %d: non-zero pad bits", ErrBadFormat, id)
		}
		s.Trajs[traj.ID(id)] = &TrajSummary{Start: first, Entries: entries}
	}
	if _, err := rd.r.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: trailing bytes after the last trajectory", ErrBadFormat)
	}
	return nil
}
