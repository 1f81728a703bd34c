// Package index implements the paper's data organization for online
// querying (§5.1): the partition-based index PI (Algorithm 3) — bounded
// spatial partitions covered by minimum rectangles, made disjoint with
// rectangle decomposition, each gridded at cell size g_c with delta+Huffman
// compressed trajectory-ID posting lists per (cell, tick) — and the
// temporal partition-based index TPI (Algorithm 4), which reuses a PI
// across a period of timestamps, monitoring Trajectory Region Density
// (Definition 5.1) to decide between cheap Insertions and full Re-builds.
package index

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"ppqtraj/internal/cache"
	"ppqtraj/internal/cluster"
	"ppqtraj/internal/codec"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/store"
	"ppqtraj/internal/traj"
)

// cellKey addresses a grid cell within a region.
type cellKey struct{ X, Y int32 }

// tickIDs is one tick's raw ID list within a cell. Ticks arrive in
// ascending order (the TPI contract), so per-cell lists are kept as
// tick-sorted slices: appending needs no map hash per point, and Seal
// iterates contiguously.
type tickIDs struct {
	tick int
	ids  []traj.ID
}

// tickPosting is one tick's sealed posting list, stored pointer-free:
// (N, Bits) plus a byte offset into the PI's shared posting arena. With
// cell×tick entries in the hundreds of thousands, keeping slice headers
// out of the entries removes a GC scan burden and a third of the bytes.
type tickPosting struct {
	tick int32
	n    int32  // posting list length (IDs)
	bits int32  // exact encoded bit length
	off  uint32 // byte offset into PI.postArena
}

// cellData is one cell's contents: per-tick trajectory IDs. IDs accumulate
// uncompressed in raw during the build; Seal encodes them into sealed and
// drops raw.
type cellData struct {
	raw    []tickIDs     // build state; ascending tick
	sealed []tickPosting // compressed postings; ascending tick
}

// sealedAt returns the sealed posting entry for tick; ok is false when
// absent.
func (c *cellData) sealedAt(tick int) (tickPosting, bool) {
	i := sort.Search(len(c.sealed), func(i int) bool { return int(c.sealed[i].tick) >= tick })
	if i < len(c.sealed) && int(c.sealed[i].tick) == tick {
		return c.sealed[i], true
	}
	return tickPosting{}, false
}

// cellEntry is one (key, dense index) pair of a region's sorted cell
// directory (built by Seal, walked by every read).
type cellEntry struct {
	key cellKey
	ci  int32
}

// Region is one indexed subregion R_{i,gc}: a rectangle gridded at g_c.
// Cell payloads live in the dense cd slice. While the index is built the
// cells map holds indices into it, so creating a cell costs amortized
// slice growth instead of one heap object per cell (indexes run to
// hundreds of thousands of cells); Seal replaces the map with the sorted
// dir that every read walks.
type Region struct {
	Rect      geo.Rect
	gc        float64
	cells     map[cellKey]int32 // build state; nil once sealed
	dir       []cellEntry       // (X, Y)-sorted directory; built by Seal
	cd        [][]cellData      // fixed-size chunks; index ci>>chunkShift
	nCells    int32             // total cells across chunks
	pages     []store.PageRange // per-cell disk placement (nil until AssignPages)
	baseTick  int               // tick the region was created at
	baseCount int               // N_{R,ts}: points indexed at creation (TRD baseline)
}

// Cells live in fixed-size chunks: growing a region never copies cell
// payloads (a flat slice re-copied hundreds of thousands of 48-byte
// structs per index build) and cell pointers stay stable.
const (
	cellChunkShift = 6
	cellChunkSize  = 1 << cellChunkShift
)

// cellPtr returns the cell at dense index ci.
func (r *Region) cellPtr(ci int32) *cellData {
	return &r.cd[ci>>cellChunkShift][ci&(cellChunkSize-1)]
}

func newRegion(r geo.Rect, gc float64, tick int) *Region {
	return &Region{
		Rect:     r,
		gc:       gc,
		cells:    make(map[cellKey]int32, 16),
		baseTick: tick,
	}
}

// cell returns a pointer to the cell for key, creating it if needed.
// Chunked storage keeps the pointer stable across later creations.
func (r *Region) cell(k cellKey) *cellData {
	ci, ok := r.cells[k]
	if !ok {
		ci = r.nCells
		r.nCells++
		if int(ci>>cellChunkShift) == len(r.cd) {
			r.cd = append(r.cd, make([]cellData, 0, cellChunkSize))
		}
		last := len(r.cd) - 1
		r.cd[last] = r.cd[last][:len(r.cd[last])+1]
		r.cells[k] = ci
	}
	return r.cellPtr(ci)
}

// cellOf maps a point inside the region to its cell key (cells are
// anchored at the region's min corner).
func (r *Region) cellOf(p geo.Point) cellKey {
	return cellKey{
		X: int32(math.Floor((p.X - r.Rect.MinX) / r.gc)),
		Y: int32(math.Floor((p.Y - r.Rect.MinY) / r.gc)),
	}
}

// CellRect returns the rectangle of the cell containing p, clipped to the
// region (regions partition space, so a cell never owns points beyond its
// region's boundary).
func (r *Region) CellRect(p geo.Point) geo.Rect {
	return r.cellRectOf(r.cellOf(p))
}

// kiPair is one (cell, id) insert within a region during a batch insert.
type kiPair struct {
	key cellKey
	id  traj.ID
}

// PI is the partition-based index of Algorithm 3 for one time period.
type PI struct {
	Regions []*Region
	gc      float64
	epsS    float64
	seed    int64
	coder   *codec.PostingCoder // shared posting coder (built by Seal)
	sealed  bool

	// Decoded-cell cache (optional, set via SetCache): decoded posting
	// lists are looked up / stored per (owner, cacheID, region, cell,
	// tick-chunk).
	cellCache  *cache.Cache
	cacheOwner uint64
	cacheID    uint32

	postArena []byte // shared backing of all sealed postings

	// Build state, released by Seal.
	idArena    []traj.ID // shared backing of all raw posting lists
	pairs      []kiPair  // batch-insert scratch
	regCnt     []int32   // batch-insert scratch: per-region point counts
	regOff     []int32   // batch-insert scratch: per-region segment offsets
	regScratch []int     // extend scratch: per-point region indices
}

// BuildPI runs Algorithm 3 on one timestamp's points: bounded partitioning
// with ε_s, minimum covering rectangles, overlap removal, grid indexing.
func BuildPI(ids []traj.ID, points []geo.Point, tick int, epsS, gc float64, seed int64) *PI {
	pi := &PI{gc: gc, epsS: epsS, seed: seed}
	// A PI typically indexes several ticks of this column size; presizing
	// the shared list arena skips most of its early growth copies.
	pi.idArena = make([]traj.ID, 0, 4*len(ids))
	pi.extend(ids, points, tick)
	return pi
}

// extend adds new regions covering the given points (used both by the
// initial build and by TPI "Insertion"). Region rectangles are made
// disjoint from all existing ones via rectangle subtraction
// (remove_overlap, [Gourley & Green]).
func (pi *PI) extend(ids []traj.ID, points []geo.Point, tick int) {
	if len(points) == 0 {
		return
	}
	// Line 1: q_s partitions under ε_s (Equation 7 with ε_s).
	res, _ := cluster.BoundedPartition(partitionFeatures(points), cluster.BoundedOptions{
		Epsilon: pi.epsS,
		Seed:    pi.seed,
		// Gonzalez-seeded rounds start with a center in every isolated
		// cluster; a few Lloyd polish iterations suffice (region MBRs
		// only need the ε_s radius bound, not converged SSE).
		MaxIter: 6,
	})
	groups := make([][]int, res.K())
	for i, c := range res.Assign {
		groups[c] = append(groups[c], i)
	}
	// A tiny inflation keeps max-edge points inside under the half-open
	// convention.
	const inflate = 1e-9
	existing := make([]geo.Rect, 0, len(pi.Regions))
	for _, r := range pi.Regions {
		existing = append(existing, r.Rect)
	}
	firstNew := len(pi.Regions)
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		pts := make([]geo.Point, len(g))
		for i, idx := range g {
			pts[i] = points[idx]
		}
		// Line 5: minimum covering rectangle.
		mbr := geo.BoundingRect(pts, inflate)
		// Lines 6–8: remove overlap with already-indexed rectangles and
		// decompose the remainder into rectangles.
		pieces := mbr.SubtractAll(existing)
		for _, piece := range pieces {
			pi.Regions = append(pi.Regions, newRegion(piece, pi.gc, tick))
			existing = append(existing, piece)
		}
	}
	// Insert the points into whichever region now covers them. Points
	// whose location falls in a pre-existing region (their group's MBR
	// overlapped it) are inserted there — the space is already indexed.
	if cap(pi.regScratch) < len(points) {
		pi.regScratch = make([]int, len(points))
	}
	regIdx := pi.regScratch[:len(points)]
	for i, p := range points {
		regIdx[i] = pi.regionIndexOf(p)
	}
	pi.insertByRegion(ids, points, tick, regIdx, nil)
	// Prune freshly-created regions that received no points: rectangle
	// subtraction produces slivers on the far side of existing regions,
	// and keeping empty ones would dilute the ADR denominator
	// (Equation 12) and bloat the directory.
	kept := pi.Regions[:firstNew]
	for _, r := range pi.Regions[firstNew:] {
		if r.baseCount > 0 {
			kept = append(kept, r)
		}
	}
	pi.Regions = kept
}

func partitionFeatures(points []geo.Point) [][]float64 {
	flat := make([]float64, 2*len(points))
	out := make([][]float64, len(points))
	for i, p := range points {
		f := flat[2*i : 2*i+2 : 2*i+2]
		f[0], f[1] = p.X, p.Y
		out[i] = f
	}
	return out
}

// regionOf returns the region covering p (regions are disjoint).
func (pi *PI) regionOf(p geo.Point) *Region {
	if i := pi.regionIndexOf(p); i >= 0 {
		return pi.Regions[i]
	}
	return nil
}

// regionIndexOf returns the index of the region covering p, or -1.
func (pi *PI) regionIndexOf(p geo.Point) int {
	for i, r := range pi.Regions {
		if r.Rect.Contains(p) {
			return i
		}
	}
	return -1
}

// insertColumn bulk-inserts one region's points of a single tick, newer
// than any the region holds: BuildPI and TPI.Append feed ticks in
// increasing order, and a tick's points reach each region in one call
// (TPI.Append's uncovered points all land in regions extend creates). The
// pairs are sorted by cell (stably, preserving the caller's ascending-ID
// order within a cell) and each cell's run lands in the PI's shared ID
// arena as one contiguous list — no per-(cell, tick) allocation.
func (pi *PI) insertColumn(r *Region, pairs []kiPair, tick int) {
	if len(pairs) == 0 {
		return
	}
	// Non-stable sort with the ID as tiebreak: IDs are unique, so the
	// order is total and equals what a stable by-cell sort of the
	// (ascending-ID) input would produce — at pdqsort speed.
	slices.SortFunc(pairs, func(a, b kiPair) int {
		if a.key.X != b.key.X {
			return cmp.Compare(a.key.X, b.key.X)
		}
		if a.key.Y != b.key.Y {
			return cmp.Compare(a.key.Y, b.key.Y)
		}
		return cmp.Compare(a.id, b.id)
	})
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].key == pairs[i].key {
			j++
		}
		c := r.cell(pairs[i].key)
		st := len(pi.idArena)
		for _, pr := range pairs[i:j] {
			pi.idArena = append(pi.idArena, pr.id)
		}
		c.raw = append(c.raw, tickIDs{tick: tick, ids: pi.idArena[st:len(pi.idArena):len(pi.idArena)]})
		i = j
	}
	if tick == r.baseTick {
		r.baseCount += len(pairs)
	}
}

// insertByRegion inserts one tick's points into the existing regions
// given each point's covering-region index (regIdx[i] < 0 = uncovered),
// so the caller's coverage probe is not repeated. Covered points are
// grouped per region and bulk-inserted; uncovered indices (the T_uc of
// Algorithm 4) are appended to uncovered and returned.
func (pi *PI) insertByRegion(ids []traj.ID, points []geo.Point, tick int, regIdx, uncovered []int) []int {
	nR := len(pi.Regions)
	if cap(pi.regCnt) < nR {
		pi.regCnt = make([]int32, nR)
		pi.regOff = make([]int32, nR)
	}
	cnt := pi.regCnt[:nR]
	for i := range cnt {
		cnt[i] = 0
	}
	covered := 0
	for i, ri := range regIdx {
		if ri >= 0 {
			cnt[ri]++
			covered++
		} else {
			uncovered = append(uncovered, i)
		}
	}
	if covered == 0 {
		return uncovered
	}
	off := pi.regOff[:nR]
	acc := int32(0)
	for r := 0; r < nR; r++ {
		off[r] = acc
		acc += cnt[r]
		cnt[r] = 0 // reused as fill cursor below
	}
	if cap(pi.pairs) < covered {
		pi.pairs = make([]kiPair, covered)
	}
	pairs := pi.pairs[:covered]
	for i, ri := range regIdx {
		if ri < 0 {
			continue
		}
		pairs[off[ri]+cnt[ri]] = kiPair{key: pi.Regions[ri].cellOf(points[i]), id: ids[i]}
		cnt[ri]++
	}
	for r := 0; r < nR; r++ {
		if cnt[r] > 0 {
			pi.insertColumn(pi.Regions[r], pairs[off[r]:off[r]+cnt[r]], tick)
		}
	}
	return uncovered
}

// Seal compresses every cell's per-tick ID lists with the shared
// delta+Huffman coder, builds each region's sorted cell directory and
// releases the build state: the raw lists and their arena, the cell maps
// and the insert scratch. A sealed PI is read-only and a second Seal is a
// no-op. The two passes (frequency training, then encoding) walk the
// tick-sorted lists in place — traj.ID aliases uint32, so no list is
// copied or converted.
func (pi *PI) Seal() error {
	if pi.sealed {
		return nil
	}
	// Both coding passes sweep the dense cell slices directly (no map
	// iteration — the cell count is routinely in the hundreds of
	// thousands).
	var freq codec.PostingFreq
	total := 0
	for _, r := range pi.Regions {
		for _, chunk := range r.cd {
			for ci := range chunk {
				c := &chunk[ci]
				total += len(c.raw)
				for i := range c.raw {
					freq.Add(c.raw[i].ids)
				}
			}
		}
	}
	coder, err := codec.NewPostingCoderFromFreq(&freq)
	if err != nil {
		return err
	}
	pi.coder = coder
	// All posting bytes land in one shared byte arena, and all sealed
	// tick entries in one shared slice — two allocations either way.
	var arena []byte
	tpArena := make([]tickPosting, 0, total)
	for _, r := range pi.Regions {
		for _, chunk := range r.cd {
			for ci := range chunk {
				c := &chunk[ci]
				st := len(tpArena)
				for i := range c.raw {
					off := len(arena)
					var pl codec.PostingList
					pl, arena, err = coder.AppendEncode(arena, c.raw[i].ids)
					if err != nil {
						return err
					}
					tpArena = append(tpArena, tickPosting{
						tick: int32(c.raw[i].tick),
						n:    int32(pl.N),
						bits: int32(pl.Bits),
						off:  uint32(off),
					})
				}
				c.sealed = tpArena[st:len(tpArena):len(tpArena)]
			}
		}
	}
	pi.postArena = arena
	// Build each region's sorted cell directory: reads walk the populated
	// cells of a rectangle in key order via binary search, which beats
	// hashing every candidate coordinate of a wide scan area.
	for _, r := range pi.Regions {
		r.dir = make([]cellEntry, 0, len(r.cells))
		for k, ci := range r.cells {
			r.dir = append(r.dir, cellEntry{key: k, ci: ci})
		}
		slices.SortFunc(r.dir, func(a, b cellEntry) int {
			if a.key.X != b.key.X {
				return cmp.Compare(a.key.X, b.key.X)
			}
			return cmp.Compare(a.key.Y, b.key.Y)
		})
		r.cells = nil
		for _, chunk := range r.cd {
			for ci := range chunk {
				chunk[ci].raw = nil
			}
		}
	}
	pi.idArena, pi.pairs, pi.regCnt, pi.regOff, pi.regScratch = nil, nil, nil, nil, nil
	pi.sealed = true
	return nil
}

// mustBeSealed panics on an index that is still being built: every read
// walks the sealed directory and postings, so reaching one early is a
// bug.
func (pi *PI) mustBeSealed() {
	if !pi.sealed {
		panic("index: read of an unsealed PI")
	}
}

// SetCache attaches a shared decoded-cell cache. owner names this PI's
// owner (typically a sealed repository segment) in cache keys and id
// disambiguates sibling PIs of the same owner (the TPI period index).
// A sealed index never changes, so cached decodes never go stale.
func (pi *PI) SetCache(c *cache.Cache, owner uint64, id uint32) {
	pi.cellCache = c
	pi.cacheOwner = owner
	pi.cacheID = id
}

// decodedChunk is one cached value: the decoded posting lists of a single
// cell for every present tick of one cache chunk, ascending by tick. The
// slices are shared between the cache and every reader, immutable by
// contract.
type decodedChunk struct {
	ticks []int32
	ids   [][]traj.ID
	cost  int64
}

// at returns the decoded list for tick (nil when the cell has no posting
// at that tick).
func (d *decodedChunk) at(tick int) []traj.ID {
	i := sort.Search(len(d.ticks), func(i int) bool { return int(d.ticks[i]) >= tick })
	if i < len(d.ticks) && int(d.ticks[i]) == tick {
		return d.ids[i]
	}
	return nil
}

// posting returns the coded form of one sealed posting entry. Its Data
// runs to the end of the shared arena, so the decoder can read whole
// 64-bit windows past the posting's last byte; Bits bounds what it
// decodes.
func (pi *PI) posting(tp tickPosting) codec.PostingList {
	return codec.PostingList{N: int(tp.n), Bits: int(tp.bits), Data: pi.postArena[tp.off:]}
}

// decodePosting decodes one sealed posting entry (nil on a corrupt
// posting).
func (pi *PI) decodePosting(tp tickPosting) []traj.ID {
	pl := pi.posting(tp)
	ids, err := pi.coder.Decode(&pl) // []uint32 is []traj.ID (alias)
	if err != nil {
		return nil
	}
	return ids
}

// decodeSealed decodes one sealed posting list by tick (nil on absence).
func (pi *PI) decodeSealed(c *cellData, tick int) []traj.ID {
	tp, ok := c.sealedAt(tick)
	if !ok {
		return nil
	}
	return pi.decodePosting(tp)
}

// decodeChunk decodes every posting of the cell whose tick falls in the
// given cache chunk.
func (pi *PI) decodeChunk(c *cellData, chunk int32) *decodedChunk {
	lo := int(chunk) * cache.ChunkTicks
	hi := lo + cache.ChunkTicks
	i := sort.Search(len(c.sealed), func(i int) bool { return int(c.sealed[i].tick) >= lo })
	d := &decodedChunk{cost: 64}
	for ; i < len(c.sealed) && int(c.sealed[i].tick) < hi; i++ {
		ids := pi.decodePosting(c.sealed[i])
		d.ticks = append(d.ticks, c.sealed[i].tick)
		d.ids = append(d.ids, ids)
		d.cost += 4 + 24 + 4*int64(len(ids))
	}
	return d
}

// decodeCell returns the IDs of one (cell, tick) posting. ri and ci are
// the cell's region and dense-cell indices, which key the decoded-cell
// cache when one is attached; on a cache miss the cell's whole tick chunk
// is decoded and cached, so adjacent-tick probes hit. Returned slices are
// shared with the cache and must not be modified.
func (pi *PI) decodeCell(ri, ci int32, c *cellData, tick int) []traj.ID {
	if pi.cellCache == nil {
		return pi.decodeSealed(c, tick)
	}
	key := cache.Key{
		Owner: pi.cacheOwner,
		PI:    pi.cacheID,
		Reg:   uint32(ri),
		Cell:  ci,
		Chunk: cache.Chunk(tick),
	}
	if v, ok := pi.cellCache.Get(key); ok {
		return v.(*decodedChunk).at(tick)
	}
	d := pi.decodeChunk(c, key.Chunk)
	pi.cellCache.Put(key, d, d.cost)
	return d.at(tick)
}

// LookupArea returns all IDs at the given tick whose indexed position
// falls in a cell intersecting the query rectangle — the local-search
// probe of §5.2. A non-nil ReadTracker is charged the page ranges of the
// cells touched (disk mode). The PI must be sealed.
func (pi *PI) LookupArea(area geo.Rect, tick int, rt *store.ReadTracker) []traj.ID {
	return pi.AppendLookupArea(nil, area, tick, rt)
}

// AppendLookupArea is LookupArea writing into dst (grown as needed) so
// steady-state query loops can reuse one scratch slice instead of
// allocating a candidate list per probe. The appended IDs are sorted and
// deduplicated; dst's existing contents are preserved untouched.
func (pi *PI) AppendLookupArea(dst []traj.ID, area geo.Rect, tick int, rt *store.ReadTracker) []traj.ID {
	pi.mustBeSealed()
	st := len(dst)
	for ri, r := range pi.Regions {
		if !r.Rect.Intersects(area) {
			continue
		}
		r.forEachCellIn(area, func(_ cellKey, ci int32) bool {
			// Cells have a placement only once AssignPages ran.
			if rt != nil && int(ci) < len(r.pages) {
				rt.Read(r.pages[ci])
			}
			dst = append(dst, pi.decodeCell(int32(ri), ci, r.cellPtr(ci), tick)...)
			return true
		})
	}
	out := dst[st:]
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return dst[:st+len(traj.DedupSorted(out))]
}

// cellRange returns the inclusive cell-index range of the region's cells
// intersecting area. The caller must have checked r.Rect.Intersects(area).
func (r *Region) cellRange(area geo.Rect) (x0, y0, x1, y1 int32) {
	x0 = int32(math.Floor((math.Max(area.MinX, r.Rect.MinX) - r.Rect.MinX) / r.gc))
	y0 = int32(math.Floor((math.Max(area.MinY, r.Rect.MinY) - r.Rect.MinY) / r.gc))
	x1 = int32(math.Floor((math.Min(area.MaxX, r.Rect.MaxX) - r.Rect.MinX) / r.gc))
	y1 = int32(math.Floor((math.Min(area.MaxY, r.Rect.MaxY) - r.Rect.MinY) / r.gc))
	return x0, y0, x1, y1
}

// cellRectOf returns the rectangle of the cell at key k, clipped to the
// region.
func (r *Region) cellRectOf(k cellKey) geo.Rect {
	cell := geo.Rect{
		MinX: r.Rect.MinX + float64(k.X)*r.gc,
		MinY: r.Rect.MinY + float64(k.Y)*r.gc,
		MaxX: r.Rect.MinX + float64(k.X+1)*r.gc,
		MaxY: r.Rect.MinY + float64(k.Y+1)*r.gc,
	}
	return cell.Intersect(r.Rect)
}

// SizeBytes estimates the serialized size of the sealed index: region
// rectangles, cell directory entries, compressed postings, and the
// shared Huffman table.
func (pi *PI) SizeBytes() int {
	pi.mustBeSealed()
	bits := pi.coder.TableBits()
	for _, r := range pi.Regions {
		bits += 4 * 64 // rectangle
		for _, e := range r.dir {
			bits += 64 // cell key + directory entry
			for _, tp := range r.cellPtr(e.ci).sealed {
				bits += 32 + int(tp.bits) // tick tag + postings
			}
		}
	}
	return (bits + 7) / 8
}

// AssignPages lays the sealed index out on the page store: the region
// directory first, then every cell's postings in directory order.
// Queries afterwards charge I/Os through LookupArea's ReadTracker.
func (pi *PI) AssignPages(ps *store.PageStore) {
	pi.mustBeSealed()
	ps.AlignToPage()
	// Directory blob: rectangles + cell keys.
	dir := 0
	for _, r := range pi.Regions {
		dir += 32 + len(r.dir)*16
	}
	ps.Alloc(dir)
	for _, r := range pi.Regions {
		r.pages = make([]store.PageRange, r.nCells)
		for _, e := range r.dir {
			sz := 0
			for _, tp := range r.cellPtr(e.ci).sealed {
				sz += 8 + (int(tp.bits)+7)/8
			}
			r.pages[e.ci] = ps.Alloc(sz)
		}
	}
}
