package codec

import (
	"encoding/binary"
	"slices"
)

// PostingList compresses a sorted list of trajectory IDs with delta
// encoding followed by Huffman coding of the gap values — the grid-cell
// posting-list representation of §5.1. Gaps larger than the Huffman
// alphabet are escaped with a reserved symbol followed by a 32-bit raw
// value, so arbitrary ID distributions stay lossless.
type PostingList struct {
	N    int    // number of IDs
	Bits int    // exact encoded length in bits (excluding the shared table)
	Data []byte // encoded gaps
}

// escapeSymbol marks a gap too large for the shared alphabet; it is
// followed by 32 raw bits.
const escapeSymbol = ^uint32(0)

// GapAlphabet bounds the directly-encoded gap values; gaps ≥ GapAlphabet
// use the escape path. Small gaps dominate in dense cells, which is where
// compression matters.
const GapAlphabet = 1 << 12

// PostingCoder owns the Huffman table shared by all posting lists of one
// index (one table per PI, amortizing the table cost across cells).
type PostingCoder struct {
	huff    *Huffman
	w       BitWriter // AppendEncode scratch
	scratch []uint32  // sort scratch for unsorted input

	// table maps every tableBits-bit prefix to gap<<8 | code length for
	// the codes of at most tableBits bits (GapAlphabet standing for the
	// escape), 0 where only a longer code starts with that prefix.
	table     []uint32
	tableBits int
}

// decodeTableBits caps the decode table at 2⁹ four-byte entries (2 KiB):
// a repository holds hundreds of coders, so a wider table would show in
// its resident heap, while short gaps already get the short codes.
const decodeTableBits = 9

// PostingFreq accumulates the gap-symbol frequencies of posting lists —
// the training pass of a PostingCoder, kept allocation-free: a dense
// counter per alphabet gap plus the escape count, no per-list copies.
type PostingFreq struct {
	counts  [GapAlphabet]uint64
	escapes uint64
	scratch []uint32
}

// Add counts the gap symbols of one posting list (sorted or not; unsorted
// lists are sorted into an internal scratch copy).
func (f *PostingFreq) Add(ids []uint32) {
	if len(ids) == 0 {
		return
	}
	s := ids
	if !slices.IsSorted(ids) {
		f.scratch = append(f.scratch[:0], ids...)
		slices.Sort(f.scratch)
		s = f.scratch
	}
	prev := uint32(0)
	for i, id := range s {
		g := id
		if i > 0 {
			g = id - prev
		}
		prev = id
		if g < GapAlphabet {
			f.counts[g]++
		} else {
			f.escapes++
		}
	}
}

// NewPostingCoderFromFreq builds the shared Huffman coder from
// accumulated frequencies.
func NewPostingCoderFromFreq(f *PostingFreq) (*PostingCoder, error) {
	freq := make(map[uint32]uint64)
	for g, n := range f.counts {
		if n > 0 {
			freq[uint32(g)] = n
		}
	}
	if f.escapes > 0 {
		freq[escapeSymbol] = f.escapes
	}
	if len(freq) == 0 {
		// An index with only empty cells still needs a functioning coder.
		freq[0] = 1
	}
	h, err := NewHuffman(freq)
	if err != nil {
		return nil, err
	}
	c := &PostingCoder{huff: h, tableBits: min(decodeTableBits, h.maxLen)}
	k := c.tableBits
	c.table = make([]uint32, 1<<k)
	for l := 1; l <= k; l++ {
		for j := range uint64(h.dCount[l]) {
			e := gapOf(h.symbols[h.dOffset[l]+int32(j)])<<8 | uint32(l)
			lo := (h.dFirst[l] + j) << uint(k-l)
			for x := range uint64(1) << uint(k-l) {
				c.table[lo+x] = e
			}
		}
	}
	return c, nil
}

// symbolize maps a gap to its Huffman symbol (escape for large gaps).
func symbolize(g uint32) uint32 {
	if g >= GapAlphabet {
		return escapeSymbol
	}
	return g
}

// TableBits returns the size of the shared Huffman table in bits.
func (c *PostingCoder) TableBits() int { return c.huff.TableBits() }

// AppendEncode compresses ids and appends the encoded bytes to arena.
// Already-sorted input — the common case, columns arrive ID-sorted — is
// encoded with no copy; unsorted input is sorted into the coder's
// scratch. The returned list's Data aliases the returned arena, letting
// an index seal hundreds of thousands of tiny cell postings into a
// handful of allocations. Growing the arena may reallocate it; lists encoded
// earlier keep their (still valid) view of the previous backing array.
func (c *PostingCoder) AppendEncode(arena []byte, ids []uint32) (PostingList, []byte, error) {
	s := ids
	if !slices.IsSorted(ids) {
		c.scratch = append(c.scratch[:0], ids...)
		slices.Sort(c.scratch)
		s = c.scratch
	}
	c.w.Reset()
	prev := uint32(0)
	fastLen, fastCode := c.huff.fastLen, c.huff.fastCode
	for i, id := range s {
		g := id
		if i > 0 {
			g = id - prev
		}
		prev = id
		// In-alphabet gaps hit the dense code table directly (the common
		// case by construction: the coder was trained on these lists).
		if g < GapAlphabet && int(g) < len(fastLen) && fastLen[g] > 0 {
			c.w.WriteBits(fastCode[g], int(fastLen[g]))
			continue
		}
		sym := symbolize(g)
		if err := c.huff.EncodeSymbol(&c.w, sym); err != nil {
			return PostingList{}, arena, err
		}
		if sym == escapeSymbol {
			c.w.WriteBits(uint64(g), 32)
		}
	}
	start := len(arena)
	arena = append(arena, c.w.Bytes()...)
	return PostingList{N: len(s), Bits: c.w.Len(), Data: arena[start:len(arena):len(arena)]}, arena, nil
}

// Decode reconstructs the sorted ID list.
func (c *PostingCoder) Decode(p *PostingList) ([]uint32, error) {
	return c.AppendDecode(nil, p)
}

// AppendDecode decodes p and appends its IDs to dst, growing it at most
// once. On error it returns dst at its original length; it never appends
// more than p.N IDs. p.Data may run past the posting's own bytes (an
// arena tail, say): only the first p.Bits bits are decoded, and the
// trailing bytes only let the kernel read whole 64-bit windows.
//
// The kernel reads one 64-bit big-endian window per symbol. Codes of at
// most decodeTableBits bits resolve with one table lookup; longer codes
// are found by testing the window's prefix of each longer length against
// that length's canonical code range; an escaped gap's 32 raw bits are
// one shift of the same window.
func (c *PostingCoder) AppendDecode(dst []uint32, p *PostingList) ([]uint32, error) {
	if p.N <= 0 {
		return dst, nil
	}
	data := p.Data
	nbit := p.Bits
	if nbit < 0 || nbit > len(data)*8 {
		nbit = len(data) * 8
	}
	// Every code is at least one bit long, so a corrupt N cannot make
	// the decoder reserve more than the stream can hold.
	orig := len(dst)
	dst = slices.Grow(dst, min(p.N, nbit))
	tab, shift := c.table, uint(64-c.tableBits)
	pos := 0
	var prev uint32
	for i := 0; i < p.N; i++ {
		w := window(data, pos)
		e := tab[w>>shift]
		l := int(e & 0xff)
		g := e >> 8
		if l == 0 {
			l, g = c.decodeLong(w)
			if l == 0 {
				return dst[:orig], ErrBadHuffmanCode
			}
		}
		if pos += l; pos > nbit {
			return dst[:orig], ErrShortStream
		}
		if g == GapAlphabet {
			if l <= 32 {
				g = uint32(w << uint(l) >> 32)
			} else {
				g = uint32(window(data, pos) >> 32)
			}
			if pos += 32; pos > nbit {
				return dst[:orig], ErrShortStream
			}
		}
		if i > 0 {
			g += prev
		}
		dst = append(dst, g)
		prev = g
	}
	return dst, nil
}

// decodeLong resolves a code longer than the table's reach from the
// window w: the first length whose canonical range holds w's prefix of
// that length. It returns the code length (0 when no code matches) and
// the gap, GapAlphabet standing for the escape.
func (c *PostingCoder) decodeLong(w uint64) (int, uint32) {
	h := c.huff
	for l := c.tableBits + 1; l <= h.maxLen; l++ {
		code := w >> uint(64-l)
		if d := code - h.dFirst[l]; d < uint64(h.dCount[l]) {
			return l, gapOf(h.symbols[h.dOffset[l]+int32(d)])
		}
	}
	return 0, 0
}

// gapOf maps a Huffman symbol to the decoder's gap value: the symbol
// itself, or GapAlphabet for the escape.
func gapOf(sym uint32) uint32 {
	if sym == escapeSymbol {
		return GapAlphabet
	}
	return sym
}

// window returns the 64 bits of data starting at bit pos, most
// significant first; bits past the end of data read as zero.
func window(data []byte, pos int) uint64 {
	i, s := pos>>3, uint(pos&7)
	if i+8 < len(data) {
		return binary.BigEndian.Uint64(data[i:])<<s | uint64(data[i+8])>>(8-s)
	}
	var buf [9]byte
	if i < len(data) {
		copy(buf[:], data[i:])
	}
	return binary.BigEndian.Uint64(buf[:])<<s | uint64(buf[8])>>(8-s)
}
