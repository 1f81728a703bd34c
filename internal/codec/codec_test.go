package codec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(1, 1)
	w.WriteBits(0, 1)
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xDEADBEEF, 32)
	if w.Len() != 38 {
		t.Fatalf("Len = %d, want 38", w.Len())
	}
	r := NewBitReader(w.Bytes(), w.Len())
	if b, _ := readBit(r); b != 1 {
		t.Fatal("first bit")
	}
	if b, _ := readBit(r); b != 0 {
		t.Fatal("second bit")
	}
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("nibble = %b", v)
	}
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Fatalf("word = %x", v)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	if _, err := readBit(r); err != ErrShortStream {
		t.Fatalf("expected ErrShortStream, got %v", err)
	}
}

func TestBitWriterReset(t *testing.T) {
	var w BitWriter
	w.WriteBits(0xFF, 8)
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	w.WriteBits(0b101, 3)
	r := NewBitReader(w.Bytes(), w.Len())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("after reset: %b", v)
	}
}

// readBit is the one-bit-at-a-time read that the byte-wise ReadBits
// replaced, kept as the oracle of ReadBits and of the bit-serial reference
// decoders.
func readBit(r *BitReader) (uint, error) {
	if r.pos >= r.nbit {
		return 0, ErrShortStream
	}
	b := (r.buf[r.pos>>3] >> uint(7-r.pos&7)) & 1
	r.pos++
	return uint(b), nil
}

// TestReadBitsMatchesReadBit reads every width 0–64 at every bit offset
// of a random buffer both ways: the byte-wise ReadBits must return what a
// readBit loop assembles, and a read past the end must fail without
// consuming anything.
func TestReadBitsMatchesReadBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, 12)
	rng.Read(buf)
	for nbits := 0; nbits <= len(buf)*8; nbits += 13 {
		for off := 0; off < 16 && off <= nbits; off++ {
			for width := 0; width <= 64; width++ {
				fast, slow := NewBitReader(buf, nbits), NewBitReader(buf, nbits)
				if _, err := fast.ReadBits(off); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < off; i++ {
					readBit(slow)
				}
				got, err := fast.ReadBits(width)
				var want uint64
				var wantErr error
				for i := 0; i < width && wantErr == nil; i++ {
					var b uint
					b, wantErr = readBit(slow)
					want = want<<1 | uint64(b)
				}
				if wantErr != nil {
					if err != ErrShortStream || fast.Remaining() != nbits-off {
						t.Fatalf("nbits %d offset %d width %d: err %v, %d bits left, want ErrShortStream and %d",
							nbits, off, width, err, fast.Remaining(), nbits-off)
					}
					continue
				}
				if err != nil || got != want || fast.Remaining() != slow.Remaining() {
					t.Fatalf("nbits %d offset %d width %d: got %#x (%v, %d left), want %#x (%d left)",
						nbits, off, width, got, err, fast.Remaining(), want, slow.Remaining())
				}
			}
		}
	}
}

func TestBitRoundTripProperty(t *testing.T) {
	f := func(vals []uint16, widths []uint8) bool {
		if len(vals) == 0 || len(widths) == 0 {
			return true
		}
		var w BitWriter
		ws := make([]int, len(vals))
		for i, v := range vals {
			width := 1 + int(widths[i%len(widths)]%16)
			ws[i] = width
			w.WriteBits(uint64(v)&((1<<uint(width))-1), width)
		}
		r := NewBitReader(w.Bytes(), w.Len())
		for i, v := range vals {
			got, err := r.ReadBits(ws[i])
			if err != nil {
				return false
			}
			if got != uint64(v)&((1<<uint(ws[i]))-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 256: 8, 257: 9, 512: 9}
	for n, want := range cases {
		if got := BitsFor(n); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	h, err := NewHuffman(map[uint32]uint64{42: 100})
	if err != nil {
		t.Fatal(err)
	}
	buf, nbits, err := encodeSymbols(h, []uint32{42, 42, 42})
	if err != nil {
		t.Fatal(err)
	}
	if nbits != 3 {
		t.Fatalf("single-symbol alphabet should use 1 bit/symbol, got %d bits", nbits)
	}
	got, err := decodeSymbols(h, buf, nbits, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint32{42, 42, 42}) {
		t.Fatalf("decode = %v", got)
	}
}

func TestHuffmanEmptyAlphabet(t *testing.T) {
	if _, err := NewHuffman(map[uint32]uint64{}); err == nil {
		t.Fatal("expected error for empty alphabet")
	}
	if _, err := NewHuffman(map[uint32]uint64{1: 0}); err == nil {
		t.Fatal("expected error when all frequencies are zero")
	}
}

func TestHuffmanSkewGivesShortCodes(t *testing.T) {
	h, err := NewHuffman(map[uint32]uint64{0: 1000, 1: 10, 2: 10, 3: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h.lens[0] >= h.lens[3] {
		t.Fatalf("frequent symbol should have shorter code: len(0)=%d len(3)=%d",
			h.lens[0], h.lens[3])
	}
	if h.lens[0] != 1 {
		t.Fatalf("dominant symbol should get a 1-bit code, got %d", h.lens[0])
	}
}

func TestHuffmanRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		alpha := 2 + rng.Intn(64)
		freq := make(map[uint32]uint64)
		for s := 0; s < alpha; s++ {
			freq[uint32(s)] = uint64(1 + rng.Intn(1000))
		}
		h, err := NewHuffman(freq)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]uint32, 200)
		for i := range msg {
			msg[i] = uint32(rng.Intn(alpha))
		}
		buf, nbits, err := encodeSymbols(h, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeSymbols(h, buf, nbits, len(msg))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("iter %d: round trip failed", iter)
		}
		wantBits := 0
		for _, s := range msg {
			wantBits += h.lens[s]
		}
		if wantBits != nbits {
			t.Fatalf("sum of code lengths = %d, stream = %d", wantBits, nbits)
		}
	}
}

func TestHuffmanKraft(t *testing.T) {
	// Kraft inequality must hold with equality for a complete Huffman code.
	h, err := NewHuffman(map[uint32]uint64{0: 5, 1: 3, 2: 2, 3: 1, 4: 1})
	if err != nil {
		t.Fatal(err)
	}
	var kraft float64
	for s := uint32(0); s < 5; s++ {
		kraft += 1 / float64(uint64(1)<<uint(h.lens[s]))
	}
	if kraft > 1.0000001 || kraft < 0.9999999 {
		t.Fatalf("Kraft sum = %v, want 1", kraft)
	}
}

func TestHuffmanUnknownSymbol(t *testing.T) {
	h, _ := NewHuffman(map[uint32]uint64{1: 1, 2: 1})
	var w BitWriter
	if err := h.EncodeSymbol(&w, 99); err == nil {
		t.Fatal("expected error for unknown symbol")
	}
}

// TestDeltaEncodeDecode checks the gap coding inside a posting list: a
// repeated ID codes as a zero gap, a jump past the alphabet takes the
// escape, and decoding sums the gaps back into the IDs.
func TestDeltaEncodeDecode(t *testing.T) {
	ids := []uint32{3, 7, 7, 20, 100, 100 + GapAlphabet}
	c, err := newCoder([][]uint32{ids})
	if err != nil {
		t.Fatal(err)
	}
	p, err := encode(c, ids)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Decode(p); err != nil || !reflect.DeepEqual(got, ids) {
		t.Fatalf("decode = %v, %v; want %v", got, err, ids)
	}
}

func TestPostingRoundTrip(t *testing.T) {
	lists := [][]uint32{
		{1, 2, 3, 4, 5},
		{10, 20, 30},
		{100000, 100001}, // exercises a large first value (escape path)
		{},
		{7},
	}
	c, err := newCoder(lists)
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range lists {
		p, err := encode(c, ids)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]uint32(nil), ids...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty list decode = %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode = %v, want %v", got, want)
		}
	}
}

func TestPostingUnsortedInput(t *testing.T) {
	c, err := newCoder([][]uint32{{5, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := encode(c, []uint32{5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint32{1, 3, 5}) {
		t.Fatalf("decode = %v", got)
	}
}

func TestPostingCompressesDenseCells(t *testing.T) {
	// 1000 consecutive IDs: gaps are all 1, so the Huffman stream should be
	// close to 1 bit per ID — far below the 32-bit raw representation.
	ids := make([]uint32, 1000)
	for i := range ids {
		ids[i] = uint32(i + 5000)
	}
	c, err := newCoder([][]uint32{ids})
	if err != nil {
		t.Fatal(err)
	}
	p, err := encode(c, ids)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bits > 3*len(ids)+64 {
		t.Fatalf("dense cell encoded in %d bits, expected ≈%d", p.Bits, len(ids))
	}
}

func TestPostingRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 50; iter++ {
		n := rng.Intn(300)
		set := map[uint32]bool{}
		for len(set) < n {
			set[uint32(rng.Intn(1<<20))] = true
		}
		ids := make([]uint32, 0, n)
		for id := range set {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		c, err := newCoder([][]uint32{ids})
		if err != nil {
			t.Fatal(err)
		}
		p, err := encode(c, ids)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			if len(got) != 0 {
				t.Fatal("expected empty decode")
			}
			continue
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("iter %d: round trip failed", iter)
		}
	}
}

func TestPostingEmptyCoder(t *testing.T) {
	c, err := newCoder(nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := encode(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 0 || p.Bits != 0 {
		t.Fatalf("empty encode: %+v", p)
	}
}

func BenchmarkPostingEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ids := make([]uint32, 0, 1000)
	cur := uint32(0)
	for i := 0; i < 1000; i++ {
		cur += uint32(1 + rng.Intn(20))
		ids = append(ids, cur)
	}
	c, _ := newCoder([][]uint32{ids})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode(c, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPostingDecode decodes a cell's worth of postings, one per
// tick: short lists of clustered IDs whose first ID takes the escape,
// the shape window scans decode. It reports decoded IDs per second.
func BenchmarkPostingDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	lists := make([][]uint32, 256)
	for i := range lists {
		id := uint32(50000 + rng.Intn(200000))
		for n := 1 + rng.Intn(40); n > 0; n-- {
			lists[i] = append(lists[i], id)
			id += uint32(1 + rng.ExpFloat64()*40)
		}
	}
	c, err := newCoder(lists)
	if err != nil {
		b.Fatal(err)
	}
	var arena []byte
	posts := make([]PostingList, len(lists))
	ids := 0
	for i, l := range lists {
		if posts[i], arena, err = c.AppendEncode(arena, l); err != nil {
			b.Fatal(err)
		}
		ids += len(l)
	}
	dst := make([]uint32, 0, ids)
	for b.Loop() {
		dst = dst[:0]
		for i := range posts {
			if dst, err = c.AppendDecode(dst, &posts[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(ids)*float64(b.N)/b.Elapsed().Seconds(), "ids/s")
}
