// Package codec implements the bit-level coding substrate of
// PPQ-trajectory: bit streams (for CQC codes and codeword indexes),
// delta encoding, and canonical Huffman coding. The paper compresses the
// trajectory-ID posting lists of each grid cell with delta encoding
// followed by Huffman codes (§5.1, following [19, 22, 42]); the same
// Huffman coder also measures entropy-coded sizes for the compression-ratio
// experiments (Figure 9).
package codec

import (
	"errors"
	"fmt"
)

// ErrShortStream is returned when a read runs past the end of a BitReader.
var ErrShortStream = errors.New("codec: read past end of bit stream")

// BitWriter accumulates bits most-significant-first into a byte buffer.
// The zero value is ready to use.
type BitWriter struct {
	buf  []byte
	nbit int // bits used in the last byte (0..7); 0 means last byte full/none
}

// WriteBit appends a single bit (any non-zero b writes 1).
func (w *BitWriter) WriteBit(b uint) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
		w.nbit = 8
	}
	w.nbit--
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << uint(w.nbit)
	}
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64]. Bits land in byte-sized chunks, not one by one.
func (w *BitWriter) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("codec: WriteBits n=%d", n))
	}
	// Top up the partial byte.
	for n > 0 && w.nbit > 0 {
		n--
		w.nbit--
		if v>>uint(n)&1 != 0 {
			w.buf[len(w.buf)-1] |= 1 << uint(w.nbit)
		}
	}
	// Whole bytes.
	for n >= 8 {
		n -= 8
		w.buf = append(w.buf, byte(v>>uint(n)))
	}
	// Remainder opens a fresh partial byte.
	if n > 0 {
		w.buf = append(w.buf, byte(v<<uint(8-n)))
		w.nbit = 8 - n
	}
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int {
	if len(w.buf) == 0 {
		return 0
	}
	return len(w.buf)*8 - w.nbit
}

// Bytes returns the backing buffer; trailing unused bits are zero.
func (w *BitWriter) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse without reallocating.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// BitReader consumes bits most-significant-first from a byte slice.
type BitReader struct {
	buf  []byte
	pos  int // bit cursor
	nbit int // total readable bits
}

// NewBitReader reads up to nbits bits from buf. Pass nbits < 0 to allow
// the whole buffer (len(buf)*8 bits).
func NewBitReader(buf []byte, nbits int) *BitReader {
	if nbits < 0 || nbits > len(buf)*8 {
		nbits = len(buf) * 8
	}
	return &BitReader{buf: buf, nbit: nbits}
}

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, ErrShortStream
	}
	b := (r.buf[r.pos>>3] >> uint(7-r.pos&7)) & 1
	r.pos++
	return uint(b), nil
}

// ReadBits returns the next n bits as the low bits of a uint64, most
// significant first. n must be in [0, 64]. It mirrors WriteBits: the rest
// of the current byte, then whole bytes, then the head of the next one.
// A read past the end returns ErrShortStream and consumes nothing.
func (r *BitReader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("codec: ReadBits n=%d", n))
	}
	if n > r.nbit-r.pos {
		return 0, ErrShortStream
	}
	var v uint64
	pos := r.pos
	// Finish the partial byte.
	if off := pos & 7; off != 0 && n > 0 {
		take := min(8-off, n)
		v = uint64(r.buf[pos>>3]>>uint(8-off-take)) & (1<<uint(take) - 1)
		pos += take
		n -= take
	}
	// Whole bytes.
	for ; n >= 8; n -= 8 {
		v = v<<8 | uint64(r.buf[pos>>3])
		pos += 8
	}
	// The head of the next byte.
	if n > 0 {
		v = v<<uint(n) | uint64(r.buf[pos>>3]>>uint(8-n))
		pos += n
	}
	r.pos = pos
	return v, nil
}

// Remaining returns how many bits are left to read.
func (r *BitReader) Remaining() int { return r.nbit - r.pos }

// BitsFor returns the minimum number of bits needed to represent values in
// [0, n): ⌈log₂ n⌉ with BitsFor(0) = BitsFor(1) = 0... except callers
// indexing a 1-entry codebook still need an index, so BitsFor(1) = 1.
func BitsFor(n int) int {
	if n <= 1 {
		if n == 1 {
			return 1
		}
		return 0
	}
	bits := 0
	for v := uint64(n - 1); v > 0; v >>= 1 {
		bits++
	}
	return bits
}
