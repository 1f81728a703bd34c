package codec

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrBadHuffmanCode is returned when a bit stream does not decode to a
// known symbol.
var ErrBadHuffmanCode = errors.New("codec: invalid huffman code")

// Huffman is a canonical Huffman coder over uint32 symbols. Build it from
// symbol frequencies, then encode symbols with EncodeSymbol; the posting
// coder decodes them.
//
// Encoding and decoding run on dense arrays, not maps: canonical codes of
// one length are consecutive, so a decoder only needs per-length
// (first code, count, symbol offset) triples, and small symbols (the
// posting coder's gap alphabet) get a direct symbol→code table. The maps
// remain as the fallback for sparse/large symbols.
type Huffman struct {
	lens    map[uint32]int    // symbol → code length
	codes   map[uint32]uint64 // symbol → canonical code
	maxLen  int
	symbols []uint32 // canonical order, for serialization and decoding

	dCount  [65]uint32 // codes per length
	dFirst  [65]uint64 // first canonical code of each length
	dOffset [65]int32  // index into symbols of each length's first code

	fastLen  []uint8 // symbol → code length for small symbols (0 = absent)
	fastCode []uint64
}

// fastSymbolBound caps the dense encode table (covers the posting gap
// alphabet with room to spare; larger symbols fall back to the maps).
const fastSymbolBound = 1 << 16

// NewHuffman builds a coder from frequency counts. Symbols with zero
// frequency are ignored. At least one symbol must have positive frequency.
func NewHuffman(freq map[uint32]uint64) (*Huffman, error) {
	var syms []uint32
	for s, f := range freq {
		if f > 0 {
			syms = append(syms, s)
		}
	}
	if len(syms) == 0 {
		return nil, errors.New("codec: huffman needs at least one symbol")
	}
	slices.Sort(syms)

	lens := make(map[uint32]int, len(syms))
	if len(syms) == 1 {
		// Degenerate alphabet: one symbol, one bit.
		lens[syms[0]] = 1
	} else {
		// Order symbols by (frequency, symbol) — a deterministic total
		// order — and compute optimal code lengths with the in-place
		// Moffat–Katajainen algorithm: two O(n) sweeps over the weight
		// array instead of a heap of tree nodes.
		type symFreq struct {
			sym uint32
			f   uint64
		}
		sf := make([]symFreq, len(syms))
		for i, s := range syms {
			sf[i] = symFreq{sym: s, f: freq[s]}
		}
		slices.SortFunc(sf, func(a, b symFreq) int {
			if a.f != b.f {
				return cmp.Compare(a.f, b.f)
			}
			return cmp.Compare(a.sym, b.sym)
		})
		a := make([]uint64, len(sf))
		for i := range sf {
			a[i] = sf[i].f
		}
		minimumRedundancy(a)
		for i := range sf {
			l := int(a[i])
			if l == 0 {
				l = 1
			}
			lens[sf[i].sym] = l
		}
	}
	return newCanonical(lens)
}

// minimumRedundancy computes optimal prefix-code lengths in place from
// weights sorted ascending (Moffat & Katajainen, "In-place calculation of
// minimum-redundancy codes", 1995): a[i] becomes the code length of the
// i-th lightest symbol. Requires len(a) ≥ 2.
func minimumRedundancy(a []uint64) {
	n := len(a)
	// Phase 1: pairwise combination, storing parent indices in place.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Phase 2: internal-node depths from parent pointers.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Phase 3: leaf depths from internal depth counts.
	avail, used, depth := 1, 0, 0
	rootIdx, next := n-2, n-1
	for avail > 0 {
		for rootIdx >= 0 && int(a[rootIdx]) == depth {
			used++
			rootIdx--
		}
		for avail > used {
			a[next] = uint64(depth)
			next--
			avail--
		}
		avail = 2 * used
		depth++
		used = 0
	}
}

// newCanonical assigns canonical codes given code lengths.
func newCanonical(lens map[uint32]int) (*Huffman, error) {
	type symLen struct {
		sym uint32
		l   int
	}
	sl := make([]symLen, 0, len(lens))
	maxLen := 0
	for s, l := range lens {
		if l <= 0 || l > 63 {
			return nil, fmt.Errorf("codec: bad code length %d", l)
		}
		sl = append(sl, symLen{s, l})
		if l > maxLen {
			maxLen = l
		}
	}
	slices.SortFunc(sl, func(a, b symLen) int {
		if a.l != b.l {
			return cmp.Compare(a.l, b.l)
		}
		return cmp.Compare(a.sym, b.sym)
	})
	h := &Huffman{
		lens:   lens,
		codes:  make(map[uint32]uint64, len(lens)),
		maxLen: maxLen,
	}
	maxFast := -1
	for _, e := range sl {
		if int(e.sym) < fastSymbolBound && int(e.sym) > maxFast {
			maxFast = int(e.sym)
		}
	}
	if maxFast >= 0 {
		h.fastLen = make([]uint8, maxFast+1)
		h.fastCode = make([]uint64, maxFast+1)
	}
	var code uint64
	prevLen := 0
	for i, e := range sl {
		code <<= uint(e.l - prevLen)
		prevLen = e.l
		h.codes[e.sym] = code
		if h.dCount[e.l] == 0 {
			h.dFirst[e.l] = code
			h.dOffset[e.l] = int32(i)
		}
		h.dCount[e.l]++
		if int(e.sym) < fastSymbolBound {
			h.fastLen[e.sym] = uint8(e.l)
			h.fastCode[e.sym] = code
		}
		h.symbols = append(h.symbols, e.sym)
		code++
	}
	return h, nil
}

// EncodeSymbol appends the code for s to w.
func (h *Huffman) EncodeSymbol(w *BitWriter, s uint32) error {
	if int64(s) < int64(len(h.fastLen)) {
		if l := h.fastLen[s]; l > 0 {
			w.WriteBits(h.fastCode[s], int(l))
			return nil
		}
		return fmt.Errorf("codec: symbol %d not in huffman alphabet", s)
	}
	l, ok := h.lens[s]
	if !ok {
		return fmt.Errorf("codec: symbol %d not in huffman alphabet", s)
	}
	w.WriteBits(h.codes[s], l)
	return nil
}

// TableBits estimates the serialized size of the code table itself:
// per symbol, the symbol value (32 bits) and its length (6 bits). The
// canonical construction means lengths alone are sufficient to rebuild.
func (h *Huffman) TableBits() int { return len(h.lens) * (32 + 6) }
