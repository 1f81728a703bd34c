package codec

import (
	"slices"
	"testing"
)

// encodeSymbols writes symbols to a fresh buffer through EncodeSymbol and
// returns it with its exact bit length.
func encodeSymbols(h *Huffman, symbols []uint32) ([]byte, int, error) {
	var w BitWriter
	for _, s := range symbols {
		if err := h.EncodeSymbol(&w, s); err != nil {
			return nil, 0, err
		}
	}
	return w.Bytes(), w.Len(), nil
}

// decodeSymbol reads one symbol from r a bit at a time, walking the
// canonical per-length ranges: the reference the posting decoder's table
// kernel is checked against.
func decodeSymbol(h *Huffman, r *BitReader) (uint32, error) {
	var code uint64
	for l := 1; l <= h.maxLen; l++ {
		bit, err := readBit(r)
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(bit)
		if c := h.dCount[l]; c > 0 && code >= h.dFirst[l] && code-h.dFirst[l] < uint64(c) {
			return h.symbols[h.dOffset[l]+int32(code-h.dFirst[l])], nil
		}
	}
	return 0, ErrBadHuffmanCode
}

// decodeSymbols reads exactly n symbols from buf (nbits valid bits).
func decodeSymbols(h *Huffman, buf []byte, nbits, n int) ([]uint32, error) {
	r := NewBitReader(buf, nbits)
	out := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		s, err := decodeSymbol(h, r)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// newCoder trains a posting coder on lists.
func newCoder(lists [][]uint32) (*PostingCoder, error) {
	var f PostingFreq
	for _, ids := range lists {
		f.Add(ids)
	}
	return NewPostingCoderFromFreq(&f)
}

// encode encodes one posting list into a fresh buffer.
func encode(c *PostingCoder, ids []uint32) (*PostingList, error) {
	p, _, err := c.AppendEncode(nil, ids)
	return &p, err
}

// FuzzHuffmanRoundTrip derives a frequency table and a message from the
// fuzz input and checks that the message survives encoding and decoding
// for whatever canonical code NewHuffman builds. The alphabet is kept
// small so the fuzzer spends its budget on code-shape diversity (skewed,
// uniform, single-symbol) rather than on huge tables.
func FuzzHuffmanRoundTrip(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3}, []byte{0, 0, 0, 1, 2, 3})
	f.Add([]byte{2, 0, 100, 1, 1}, []byte{0, 1, 0, 0, 1})
	f.Add([]byte{1, 42, 100}, []byte{42, 42, 42})
	f.Add([]byte{5, 0, 5, 1, 3, 2, 2, 3, 1, 4, 1}, []byte{4, 3, 2, 1, 0, 0, 1, 2})

	f.Fuzz(func(t *testing.T, table, msg []byte) {
		if len(table) == 0 {
			return
		}
		// table = [count, sym0, w0, sym1, w1, ...]; weights are bumped by
		// one so every listed symbol has nonzero frequency.
		n := int(table[0]%16) + 1
		freq := map[uint32]uint64{}
		for i := 0; i < n && 1+2*i+1 < len(table); i++ {
			freq[uint32(table[1+2*i])] = uint64(table[1+2*i+1]) + 1
		}
		if len(freq) == 0 {
			return
		}
		h, err := NewHuffman(freq)
		if err != nil {
			t.Fatalf("NewHuffman(%v): %v", freq, err)
		}
		symbols := make([]uint32, 0, len(msg))
		for _, b := range msg {
			s := uint32(b)
			if _, ok := freq[s]; ok {
				symbols = append(symbols, s)
			}
		}
		buf, nbits, err := encodeSymbols(h, symbols)
		if err != nil {
			t.Fatalf("Encode(%v): %v", symbols, err)
		}
		got, err := decodeSymbols(h, buf, nbits, len(symbols))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if len(got) != len(symbols) {
			t.Fatalf("round-trip length: got %d, want %d", len(got), len(symbols))
		}
		for i := range got {
			if got[i] != symbols[i] {
				t.Fatalf("round-trip symbol %d: got %d, want %d", i, got[i], symbols[i])
			}
		}
	})
}

// referenceDecode is the bit-serial posting decoder AppendDecode
// replaced, kept as the oracle: one ReadBit per code bit through
// Huffman.DecodeSymbol, and the escape's 32 raw bits one at a time.
func referenceDecode(c *PostingCoder, p *PostingList) ([]uint32, error) {
	r := NewBitReader(p.Data, p.Bits)
	var out []uint32
	var prev uint32
	for i := 0; i < p.N; i++ {
		sym, err := decodeSymbol(c.huff, r)
		if err != nil {
			return nil, err
		}
		g := sym
		if sym == escapeSymbol {
			raw, err := r.ReadBits(32)
			if err != nil {
				return nil, err
			}
			g = uint32(raw)
		}
		if i > 0 {
			g += prev
		}
		out = append(out, g)
		prev = g
	}
	return out, nil
}

// fuzzLists turns fuzz bytes into sorted training lists: 0xFF starts a
// new list, a byte below 0x80 is a gap of that size, and any other byte
// b a gap of (b&0x7F)<<10, so both short codes and escapes occur.
func fuzzLists(b []byte) [][]uint32 {
	var lists [][]uint32
	var cur []uint32
	var id uint32
	for _, x := range b {
		switch {
		case x == 0xFF:
			lists = append(lists, cur)
			cur, id = nil, 0
			continue
		case x < 0x80:
			id += uint32(x)
		default:
			id += uint32(x&0x7F) << 10
		}
		if len(cur) > 0 && id == cur[len(cur)-1] {
			continue
		}
		cur = append(cur, id)
	}
	return append(lists, cur)
}

// checkDecode asserts AppendDecode agrees with the reference on p: the
// same IDs, an error exactly when the reference errors, dst's prefix
// untouched and at most p.N IDs appended.
func checkDecode(t *testing.T, c *PostingCoder, p *PostingList) {
	t.Helper()
	want, wantErr := referenceDecode(c, p)
	dst := []uint32{0xDEAD, 0xBEEF}
	got, err := c.AppendDecode(dst, p)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("N=%d Bits=%d Data=%x: AppendDecode err %v, reference err %v", p.N, p.Bits, p.Data, err, wantErr)
	}
	if len(got) < 2 || got[0] != 0xDEAD || got[1] != 0xBEEF {
		t.Fatalf("dst prefix clobbered: %v", got)
	}
	if n := len(got) - 2; n > max(p.N, 0) {
		t.Fatalf("appended %d IDs for N=%d", n, p.N)
	}
	if err != nil {
		if len(got) != 2 {
			t.Fatalf("error %v left %d IDs appended", err, len(got)-2)
		}
		return
	}
	if !slices.Equal(got[2:], want) {
		t.Fatalf("N=%d Bits=%d Data=%x: AppendDecode %v, reference %v", p.N, p.Bits, p.Data, got[2:], want)
	}
}

// FuzzPostingDecode checks the table-driven posting decoder against the
// bit-serial reference on coders trained from fuzz input. Each training
// list is decoded from its valid encoding, from that encoding
// corrupted (bits flipped by data, Bits truncated, N shifted), and the
// fuzzer's own arbitrary PostingList{n, bits, data} is decoded as is.
func FuzzPostingDecode(f *testing.F) {
	f.Add([]byte{1, 1, 2, 0xFF, 3, 5, 0x90, 1}, 3, 12, []byte{0x5A, 0x00, 0xFF})
	f.Add([]byte{0x85, 1, 1, 1, 1, 0xFF, 0xFF, 7}, 1, -1, []byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0x7F, 0xC0}, 1<<40, 1<<20, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{3, 3, 3, 3, 3, 3, 0xFF, 1}, -2, 3, []byte{0x80})

	f.Fuzz(func(t *testing.T, train []byte, n, bits int, data []byte) {
		if len(train) > 4096 || len(data) > 4096 {
			return
		}
		lists := fuzzLists(train)
		c, err := newCoder(lists)
		if err != nil {
			t.Fatalf("newCoder: %v", err)
		}
		checkDecode(t, c, &PostingList{N: n, Bits: bits, Data: data})
		for _, ids := range lists {
			p, err := encode(c, ids)
			if err != nil {
				t.Fatalf("Encode(%v): %v", ids, err)
			}
			checkDecode(t, c, p)
			if got, _ := c.AppendDecode(nil, p); !slices.Equal(got, ids) && len(ids) > 0 {
				t.Fatalf("round trip %v → %v", ids, got)
			}
			bad := PostingList{N: p.N + n%3, Bits: p.Bits - abs(bits)%8, Data: slices.Clone(p.Data)}
			for i := range bad.Data {
				if i < len(data) {
					bad.Data[i] ^= data[i]
				}
			}
			checkDecode(t, c, &bad)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
