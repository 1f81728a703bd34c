// Package trajstore implements the TrajStore baseline [Cudre-Mauroux,
// Wu & Madden, ICDE 2010] as the paper uses it (§6.1): an adaptive
// quadtree spatial index whose leaf cells store trajectory segments, with
// recursive split/merge/append maintenance under streaming input, and
// per-cell quantization with codewords allocated in proportion to each
// cell's point count (the comparison protocol of §6.2.1).
//
// TrajStore's defining weakness in the paper's experiments falls out of
// the structure: the spatial index is shared by all timestamps, so a
// cell's points span a large time range and a spatio-temporal query must
// fetch every page of the cell (Table 9's I/O blow-up), and the
// summarization cannot start until the index has absorbed the full
// stream (§6.2.1).
package trajstore

import (
	"time"

	"ppqtraj/internal/baseline"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/quant"
	"ppqtraj/internal/store"
	"ppqtraj/internal/traj"
)

// Options configures a Store.
type Options struct {
	// Region is the spatial extent of the root cell.
	Region geo.Rect
	// MaxPointsPerCell triggers a split when a leaf exceeds it.
	MaxPointsPerCell int
	// MinPointsPerCell triggers merging four leaf siblings whose combined
	// population falls below it.
	MinPointsPerCell int
	// MaxDepth bounds the quadtree depth.
	MaxDepth int
	// Seed makes per-cell quantization deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxPointsPerCell <= 0 {
		o.MaxPointsPerCell = 512
	}
	if o.MinPointsPerCell <= 0 {
		o.MinPointsPerCell = o.MaxPointsPerCell / 4
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 16
	}
	return o
}

// entry is one indexed trajectory point.
type entry struct {
	id   traj.ID
	tick int
	p    geo.Point
}

type node struct {
	rect     geo.Rect
	depth    int
	children *[4]*node
	entries  []entry
	pages    store.PageRange
	placed   bool
}

func (n *node) leaf() bool { return n.children == nil }

func (n *node) childIdx(p geo.Point) int {
	c := n.rect.Center()
	i := 0
	if p.X >= c.X {
		i |= 1
	}
	if p.Y >= c.Y {
		i |= 2
	}
	return i
}

func (n *node) childRect(i int) geo.Rect {
	c := n.rect.Center()
	switch i {
	case 0:
		return geo.Rect{MinX: n.rect.MinX, MinY: n.rect.MinY, MaxX: c.X, MaxY: c.Y}
	case 1:
		return geo.Rect{MinX: c.X, MinY: n.rect.MinY, MaxX: n.rect.MaxX, MaxY: c.Y}
	case 2:
		return geo.Rect{MinX: n.rect.MinX, MinY: c.Y, MaxX: c.X, MaxY: n.rect.MaxY}
	default:
		return geo.Rect{MinX: c.X, MinY: c.Y, MaxX: n.rect.MaxX, MaxY: n.rect.MaxY}
	}
}

// Stats reports maintenance work.
type Stats struct {
	Splits, Merges, Appends int
	BuildTime               time.Duration
}

// Store is a streaming TrajStore instance.
type Store struct {
	opts      Options
	root      *node
	numPoints int
	stats     Stats
	lastTick  int
}

// New creates a Store over the given region.
func New(opts Options) *Store {
	opts = opts.withDefaults()
	if opts.Region.Empty() {
		panic("trajstore: Region must be non-empty")
	}
	return &Store{opts: opts, root: &node{rect: opts.Region}, lastTick: -1}
}

// Stats returns the maintenance counters.
func (s *Store) Stats() Stats { return s.stats }

// NumPoints returns the points ingested so far.
func (s *Store) NumPoints() int { return s.numPoints }

// Append ingests one timestamp of points (streaming input, as the paper's
// re-implementation does). Points outside the region are clamped to it.
func (s *Store) Append(ids []traj.ID, pts []geo.Point, tick int) {
	start := time.Now()
	defer func() { s.stats.BuildTime += time.Since(start) }()
	s.lastTick = tick
	for i, p := range pts {
		p = s.clamp(p)
		s.insert(s.root, entry{id: ids[i], tick: tick, p: p})
		s.numPoints++
		s.stats.Appends++
	}
	// Merge pass: collapse sparse sibling groups (recursive update of the
	// spatial index by merging, per the paper's description).
	s.mergeSparse(s.root)
}

func (s *Store) clamp(p geo.Point) geo.Point {
	r := s.opts.Region
	if p.X < r.MinX {
		p.X = r.MinX
	}
	if p.X >= r.MaxX {
		p.X = r.MaxX - 1e-12
	}
	if p.Y < r.MinY {
		p.Y = r.MinY
	}
	if p.Y >= r.MaxY {
		p.Y = r.MaxY - 1e-12
	}
	return p
}

func (s *Store) insert(n *node, e entry) {
	for !n.leaf() {
		n = n.children[n.childIdx(e.p)]
	}
	n.entries = append(n.entries, e)
	if len(n.entries) > s.opts.MaxPointsPerCell && n.depth < s.opts.MaxDepth {
		s.split(n)
	}
}

func (s *Store) split(n *node) {
	var ch [4]*node
	for i := range ch {
		ch[i] = &node{rect: n.childRect(i), depth: n.depth + 1}
	}
	n.children = &ch
	for _, e := range n.entries {
		c := ch[n.childIdx(e.p)]
		c.entries = append(c.entries, e)
	}
	n.entries = nil
	s.stats.Splits++
}

// mergeSparse collapses internal nodes whose children are all leaves with
// a combined population below MinPointsPerCell.
func (s *Store) mergeSparse(n *node) {
	if n.leaf() {
		return
	}
	for _, c := range n.children {
		s.mergeSparse(c)
	}
	total := 0
	for _, c := range n.children {
		if !c.leaf() {
			return
		}
		total += len(c.entries)
	}
	if total >= s.opts.MinPointsPerCell {
		return
	}
	var merged []entry
	for _, c := range n.children {
		merged = append(merged, c.entries...)
	}
	n.entries = merged
	n.children = nil
	s.stats.Merges++
}

// leaves returns all leaf nodes in deterministic (DFS) order.
func (s *Store) leaves() []*node {
	var out []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			out = append(out, n)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(s.root)
	return out
}

// CompressFixed quantizes every cell's points, allocating a share of
// totalWords codewords proportional to the cell's population (§6.2.1's
// fairness protocol: "the codewords are assigned in proportion to the
// number of trajectory points for every spatial cell"). It returns the
// per-point reconstructions as a FlatSummary plus the total codewords
// actually used.
func (s *Store) CompressFixed(totalWords int, seed int64) (*baseline.FlatSummary, int, error) {
	col := baseline.NewCollector("TrajStore")
	used, codeBits := 0, 0
	for _, leaf := range s.leaves() {
		n := len(leaf.entries)
		if n == 0 {
			continue
		}
		v := totalWords * n / maxInt(1, s.numPoints)
		if v < 1 {
			v = 1
		}
		pts := make([]geo.Point, n)
		for i, e := range leaf.entries {
			pts[i] = e.p
		}
		res := quant.FixedKMeans(pts, v, 20, seed)
		used += res.Book.Len()
		codeBits += n * bitsFor(res.Book.Len())
		for i, e := range leaf.entries {
			col.Add(e.id, e.tick, e.p, res.Book.Word(res.Codes[i]))
		}
	}
	f, err := col.Finish()
	if err != nil {
		return nil, 0, err
	}
	f.Codewords = used
	f.BookBytes = used*16 + s.DirectoryBytes()
	f.CodeBits = codeBits
	return f, used, nil
}

// CompressBounded quantizes every cell with an ε-bounded incremental
// quantizer (the Tables 5–6 / Figure 9 protocol) and returns the summary
// plus total codewords. With clustered set, each cell uses the
// bounded-clustering growth path (the paper's quantizer, slower but with
// smaller codebooks). The summary's size accounting covers the per-cell
// codebooks, per-point codeword indexes, and the tree directory.
func (s *Store) CompressBounded(eps float64, clustered bool) (*baseline.FlatSummary, int, error) {
	col := baseline.NewCollector("TrajStore")
	words, codeBits := 0, 0
	for _, leaf := range s.leaves() {
		if len(leaf.entries) == 0 {
			continue
		}
		var q *quant.Incremental
		if clustered {
			q = quant.NewIncrementalClustered(eps)
		} else {
			q = quant.NewIncremental(eps)
		}
		pts := make([]geo.Point, len(leaf.entries))
		for i, e := range leaf.entries {
			pts[i] = e.p
		}
		idxs := q.Quantize(pts)
		for i, e := range leaf.entries {
			col.Add(e.id, e.tick, e.p, q.Book.Word(idxs[i]))
		}
		words += q.Book.Len()
		codeBits += len(leaf.entries) * bitsFor(q.Book.Len())
	}
	f, err := col.Finish()
	if err != nil {
		return nil, 0, err
	}
	f.Codewords = words
	f.BookBytes = words*16 + s.DirectoryBytes()
	f.CodeBits = codeBits
	return f, words, nil
}

// bitsFor returns ⌈log₂ n⌉ with bitsFor(1) = 1.
func bitsFor(n int) int {
	if n <= 1 {
		if n == 1 {
			return 1
		}
		return 0
	}
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// DirectoryBytes returns the size of the quadtree directory alone (no
// point payloads): what the compressed representation must keep to route
// queries.
func (s *Store) DirectoryBytes() int {
	sz := 0
	var walk func(n *node)
	walk = func(n *node) {
		sz += 40
		if !n.leaf() {
			for _, c := range n.children {
				walk(c)
			}
		}
	}
	walk(s.root)
	return sz
}

// Lookup returns the IDs of points stored in the leaf cell containing p
// with the given tick, charging page I/Os through rt when provided. In
// TrajStore the whole cell must be fetched: its pages hold points of all
// timestamps interleaved.
func (s *Store) Lookup(p geo.Point, tick int, rt *store.ReadTracker) []traj.ID {
	n := s.root
	p = s.clamp(p)
	for !n.leaf() {
		n = n.children[n.childIdx(p)]
	}
	if rt != nil && n.placed {
		rt.Read(n.pages)
	}
	var out []traj.ID
	for _, e := range n.entries {
		if e.tick == tick {
			out = append(out, e.id)
		}
	}
	return out
}

// CellRect returns the leaf cell rectangle containing p.
func (s *Store) CellRect(p geo.Point) geo.Rect {
	n := s.root
	p = s.clamp(p)
	for !n.leaf() {
		n = n.children[n.childIdx(p)]
	}
	return n.rect
}

// SizeBytes returns the serialized index size: tree directory plus 20
// bytes per entry (id, tick, two coordinates quantized to 32 bits each).
func (s *Store) SizeBytes() int {
	sz := 0
	var walk func(n *node)
	walk = func(n *node) {
		sz += 40 // rect + node header
		if n.leaf() {
			sz += len(n.entries) * 20
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(s.root)
	return sz
}

// AssignPages lays each leaf cell's entries out contiguously on the page
// store in DFS order.
func (s *Store) AssignPages(ps *store.PageStore) {
	ps.AlignToPage()
	for _, leaf := range s.leaves() {
		leaf.pages = ps.Alloc(len(leaf.entries) * 20)
		leaf.placed = true
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
