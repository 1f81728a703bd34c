package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"ppqtraj/internal/codec"
	"ppqtraj/internal/core"
	"ppqtraj/internal/exec"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/index"
	"ppqtraj/internal/query"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
	"ppqtraj/internal/wal"
)

// The traced run measures the layers from outside, as a layered replay in
// level passes: the same frozen op list runs single-client once through
// HTTP, once through Repository.Window/Batch, once through the operator
// pipeline of every planned segment scan, once through the index cursor
// alone, and once through the posting decoder alone. The write side gets
// the same treatment. Each call is one span; a span's parent is the span
// of the same op one level up, declared, because the passes run back to
// back rather than nested. A layer's self time is its spans' time minus
// its children's.
//
// The repository runs with Workers=1 here, so a parent's wall time is the
// sum of its children's and not their parallel maximum.

// span is one call into one layer.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1: no parent
	Op     int32  `json:"op"`     // index in the replayed op list, or the column index on the write side
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder holds the spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one finished call and returns its span id.
func (r *recorder) add(name string, parent int32, op int, start time.Time, d time.Duration) int32 {
	id := int32(len(r.spans))
	s := start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: int32(op), Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

// totals sums span time by name; self is the same minus each span's
// declared children.
func (r *recorder) totals() (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	for _, s := range r.spans {
		ms := float64(s.End-s.Start) / 1e6
		total[s.Name] += ms
		self[s.Name] += ms
		if s.Parent >= 0 {
			self[r.spans[s.Parent].Name] -= ms
		}
	}
	return total, self
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names. The read side nests http → window|batch → scan → cursor →
// decode (windows) or → strq → lookup, plus reconstruct (batches).
const (
	spHTTP        = "serve.http"
	spClient      = "client.self"
	spWindow      = "serve.window"
	spBatch       = "serve.batch"
	spScan        = "exec.scan"
	spCursor      = "index.cursor"
	spDecode      = "codec.decode"
	spReplayDec   = "codec.replay_decode"
	spSTRQ        = "query.strq"
	spLookup      = "index.lookup"
	spReconstruct = "core.reconstruct"

	spHTTPIngest  = "serve.http_ingest"
	spIngest      = "serve.ingest"
	spWALAppend   = "wal.append"
	spWALCommit   = "wal.commit"
	spCompact     = "serve.compact"
	spBuild       = "core.build"
	spEngineBuild = "query.engine_build"
	spSerialize   = "core.serialize"
	spOpen        = "serve.open"
	spDeserialize = "core.deserialize"
)

// scanTarget is one planned segment scan of a window: the sub-span of one
// overlapping segment that its zone map cannot rule out. It mirrors the
// serving layer's own plan (split at segment boundaries, prune on
// OverlapScore ≤ 0).
type scanTarget struct {
	seg    *serve.Segment
	lo, hi int
}

func plannedScans(segs []*serve.Segment, win serve.WindowRequest) []scanTarget {
	var out []scanTarget
	for _, s := range segs {
		lo, hi := max(win.From, s.StartTick), min(win.To, s.EndTick)
		if lo > hi {
			continue
		}
		if s.Zone.OverlapScore(win.Rect.Expand(s.Eng.Margin()+1e-12), lo, hi) <= 0 {
			continue
		}
		out = append(out, scanTarget{seg: s, lo: lo, hi: hi})
	}
	return out
}

// segmentAt returns the sealed segment covering tick, or nil (a hot-tail
// tick, or no data): segments are ascending and disjoint.
func segmentAt(segs []*serve.Segment, tick int) *serve.Segment {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].EndTick >= tick })
	if i < len(segs) && segs[i].Covers(tick) {
		return segs[i]
	}
	return nil
}

// counters are the work counts of one read round. With one client and no
// timers they repeat exactly for a seed, which the determinism test pins.
type counters struct {
	scan        index.ScanStats // the cursor pass
	rowsIn      int64           // rows the index source emitted into the operator pipeline
	rowsOut     int64           // rows the pipeline's sink kept
	idsDecoded  int64           // IDs through codec.PostingCoder.Decode in the decode pass
	encodedSize int64           // bytes of the postings that pass decoded
	cacheHits   int64           // decoded-cell cache, over the in-process pass
	cacheMisses int64
	evictions   int64
	segScanned  int64
	segSkipped  int64
	rawAccesses int64
	exactSealed int // exact probes answered by a sealed segment
	pathPoints  int64
}

// readRound is one pass of every read level over the op list.
type readRound struct {
	rec       *recorder
	n         counters
	httpMS    []float64 // per-op client latency of the unrecorded HTTP pass
	bareMS    float64   // HTTP pass without span recording
	tracedMS  float64   // the same pass with it
	allocPerO float64
}

// idSet is the reference answer of one op: a window's IDs, or each
// probe's.
type idSet struct {
	win    []traj.ID
	probes [][]traj.ID
}

func refOf(a *answer, o *op) idSet {
	if o.queries == nil {
		return idSet{win: a.win.IDs}
	}
	ps := make([][]traj.ID, len(a.batch.Answers))
	for i := range ps {
		ps[i] = a.batch.Answers[i].IDs
	}
	return idSet{probes: ps}
}

func sortDedup(ids []traj.ID) []traj.ID {
	slices.Sort(ids)
	return traj.DedupSorted(ids)
}

// replayReads runs one round: the HTTP level twice (bare, then recorded),
// the client's own share, then each in-process level. or counts every
// level whose ID set differs from the HTTP answer as a failed operation.
func replayReads(e *env, ops []op, or *oracle, bareFirst bool) *readRound {
	rd := &readRound{rec: newRecorder()}
	rec := rd.rec
	c := e.caller()
	refs := make([]idSet, len(ops))
	bodies := make([][]byte, len(ops))
	httpID := make([]int32, len(ops))

	httpPass := func(record bool) float64 {
		start := time.Now()
		for i := range ops {
			t0 := time.Now()
			a, err := c.do(&ops[i])
			d := time.Since(t0)
			if err != nil {
				or.note(err)
				continue
			}
			if record {
				httpID[i] = rec.add(spHTTP, -1, i, t0, d)
				refs[i] = refOf(a, &ops[i])
				bodies[i] = append(bodies[i][:0], c.resp.Bytes()...)
			} else {
				rd.httpMS = append(rd.httpMS, float64(d.Nanoseconds())/1e6)
			}
		}
		return msSince(start)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if bareFirst {
		rd.bareMS = httpPass(false)
		rd.tracedMS = httpPass(true)
	} else {
		rd.tracedMS = httpPass(true)
		rd.bareMS = httpPass(false)
	}
	runtime.ReadMemStats(&ms1)
	rd.allocPerO = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(2*len(ops))

	// The client's own work: encode the request, decode the reply.
	var req []byte
	for i := range ops {
		if bodies[i] == nil {
			continue
		}
		t0 := time.Now()
		req = ops[i].body(req[:0])
		var a answer
		if ops[i].queries == nil {
			json.Unmarshal(bodies[i], &a.win) //nolint:errcheck // decoded once already by the HTTP pass
		} else {
			json.Unmarshal(bodies[i], &a.batch) //nolint:errcheck // decoded once already by the HTTP pass
		}
		rec.add(spClient, httpID[i], i, t0, time.Since(t0))
	}

	segs := e.repo.Segments()
	sealed := e.repo.Stats().SealedThrough
	before := e.repo.Stats()
	topID := make([]int32, len(ops))
	if e.w.Op == opWindow {
		for i := range ops {
			win := ops[i].win
			t0 := time.Now()
			res, err := e.repo.Window(background, win.Rect, win.From, win.To, win.Exact)
			topID[i] = rec.add(spWindow, httpID[i], i, t0, time.Since(t0))
			if err != nil || !slices.Equal(res.IDs, refs[i].win) {
				or.note(fmt.Errorf("Repository.Window disagrees with HTTP on op %d: %v", i, err))
			}
		}
	} else {
		for i := range ops {
			t0 := time.Now()
			answers := e.repo.Batch(background, ops[i].queries)
			topID[i] = rec.add(spBatch, httpID[i], i, t0, time.Since(t0))
			for j := range answers {
				if answers[j].Err != "" || !slices.Equal(answers[j].IDs, refs[i].probes[j]) {
					or.note(fmt.Errorf("Repository.Batch disagrees with HTTP on op %d probe %d: %s", i, j, answers[j].Err))
				}
			}
		}
	}
	after := e.repo.Stats()
	rd.n.cacheHits = after.Cache.Hits - before.Cache.Hits
	rd.n.cacheMisses = after.Cache.Misses - before.Cache.Misses
	rd.n.evictions = after.Cache.Evictions - before.Cache.Evictions
	rd.n.segScanned = after.Window.SegmentsScanned - before.Window.SegmentsScanned
	rd.n.segSkipped = after.Window.SegmentsSkipped - before.Window.SegmentsSkipped

	if e.w.Op == opWindow {
		rd.windowLevels(ops, refs, topID, segs, sealed, or)
	} else {
		rd.batchLevels(ops, refs, topID, segs, or)
	}
	return rd
}

// windowLevels replays the levels under Repository.Window: the operator
// pipeline, the cursor alone, the decoder alone.
func (rd *readRound) windowLevels(ops []op, refs []idSet, topID []int32, segs []*serve.Segment, sealed int, or *oracle) {
	rec := rd.rec
	plans := make([][]scanTarget, len(ops))
	scanID := make([][]int32, len(ops))
	var ids []traj.ID
	for i := range ops {
		plans[i] = plannedScans(segs, ops[i].win)
		scanID[i] = make([]int32, len(plans[i]))
		ids = ids[:0]
		for k, t := range plans[i] {
			cls := exec.Classifier{Rect: ops[i].win.Rect, Margin: t.seg.Eng.Margin()}
			var st index.ScanStats
			var rows int64
			n0 := len(ids)
			t0 := time.Now()
			pipe := exec.OpenScanPipe(background, t.seg.Eng.Idx, t.seg.Eng.Sum, cls, t.lo, t.hi, &st, &rows, nil)
			var err error
			ids, err = exec.AppendIDs(pipe.Iterator(), t.lo, t.hi, ids)
			pipe.Close()
			scanID[i][k] = rec.add(spScan, topID[i], i, t0, time.Since(t0))
			if err != nil {
				or.note(fmt.Errorf("exec scan of op %d: %w", i, err))
			}
			rd.n.rowsIn += rows
			rd.n.rowsOut += int64(len(ids) - n0)
		}
		// The hot tail is not reachable from outside; only a window that
		// lies wholly below the sealed watermark has its full answer here.
		if ops[i].win.To <= sealed && !slices.Equal(sortDedup(ids), refs[i].win) {
			or.note(fmt.Errorf("exec.OpenScanPipe over the planned segments disagrees with HTTP on op %d", i))
		}
	}

	// The cursor alone, with the classifier's reject hook but no verify.
	emitted := make([][][]traj.ID, len(ops))
	for i := range ops {
		ids = ids[:0]
		for k, t := range plans[i] {
			cls := exec.Classifier{Rect: ops[i].win.Rect, Margin: t.seg.Eng.Margin()}
			visit := func(cell geo.Rect) bool { return cls.Classify(cell) != exec.Reject }
			var st index.ScanStats
			t0 := time.Now()
			cur := t.seg.Eng.Idx.RangeCursor(cls.Area(), t.lo, t.hi, &st, visit)
			for cs, ok := cur.Next(); ok; cs, ok = cur.Next() {
				emitted[i] = append(emitted[i], cs.IDs...) // inner slices are immutable and may be kept
			}
			id := rec.add(spCursor, scanID[i][k], i, t0, time.Since(t0))
			// The decode the cursor really did on cache misses, as the index
			// itself timed it: a cache hit decodes nothing, so this share is
			// not visible from outside.
			rec.add(spDecode, id, i, t0, time.Duration(st.DecodeNanos))
			rd.n.scan.Add(st)
		}
		for _, l := range emitted[i] {
			ids = append(ids, l...)
		}
		if ops[i].win.To <= sealed && !subset(refs[i].win, sortDedup(ids)) {
			or.note(fmt.Errorf("index.RangeCursor candidates do not cover the HTTP answer of op %d", i))
		}
	}

	// The decoder alone, on the postings the cursor emitted: re-encode
	// them with a coder trained on them (untimed), then time Decode.
	var freq codec.PostingFreq
	for i := range emitted {
		for _, l := range emitted[i] {
			freq.Add(l)
		}
	}
	coder, err := codec.NewPostingCoderFromFreq(&freq)
	if err != nil {
		or.note(fmt.Errorf("training the replay posting coder: %w", err))
		return
	}
	var arena []byte
	for i := range emitted {
		lists := make([]codec.PostingList, len(emitted[i]))
		for j, l := range emitted[i] {
			if lists[j], arena, err = coder.AppendEncode(arena, l); err != nil {
				or.note(fmt.Errorf("encoding a replay posting: %w", err))
				return
			}
			rd.n.encodedSize += int64(len(lists[j].Data))
		}
		outs := make([][]uint32, len(lists))
		t0 := time.Now()
		for j := range lists {
			outs[j], _ = coder.Decode(&lists[j])
		}
		rec.add(spReplayDec, -1, i, t0, time.Since(t0))
		for j := range outs {
			rd.n.idsDecoded += int64(len(outs[j]))
			if !slices.Equal(outs[j], emitted[i][j]) {
				or.note(fmt.Errorf("codec.PostingCoder.Decode does not return the posting the cursor emitted (op %d)", i))
				break
			}
		}
	}
}

// batchLevels replays the levels under Repository.Batch for the probes a
// sealed segment answers: Engine.STRQRect, the path reconstruction, and
// the index lookup alone. Hot-tail probes stay in serve.batch's self
// time — the tail is not reachable from outside.
func (rd *readRound) batchLevels(ops []op, refs []idSet, topID []int32, segs []*serve.Segment, or *oracle) {
	rec := rd.rec
	raw0 := int64(0)
	for _, s := range segs {
		raw0 += s.Eng.RawAccesses.Load()
	}
	strqID := make([][]int32, len(ops))
	for i := range ops {
		strqID[i] = make([]int32, len(ops[i].queries))
		for j, q := range ops[i].queries {
			strqID[i][j] = -1
			seg := segmentAt(segs, q.Tick)
			if seg == nil {
				continue
			}
			cell := or.queryCell(q.P)
			t0 := time.Now()
			res, err := seg.Eng.STRQRect(background, cell, q.Tick, q.Exact, nil)
			strqID[i][j] = rec.add(spSTRQ, topID[i], i, t0, time.Since(t0))
			if q.Exact {
				rd.n.exactSealed++
			}
			if err != nil || !slices.Equal(res.IDs, refs[i].probes[j]) {
				or.note(fmt.Errorf("Engine.STRQRect disagrees with HTTP on op %d probe %d: %v", i, j, err))
				continue
			}
			if q.PathLen > 0 && len(res.IDs) > 0 {
				t0 = time.Now()
				for _, id := range res.IDs {
					rd.n.pathPoints += int64(len(seg.Sum.ReconstructPath(id, q.Tick, q.PathLen)))
				}
				rec.add(spReconstruct, topID[i], i, t0, time.Since(t0))
			}
		}
	}
	for _, s := range segs {
		rd.n.rawAccesses += s.Eng.RawAccesses.Load()
	}
	rd.n.rawAccesses -= raw0

	var cand []traj.ID
	for i := range ops {
		for j, q := range ops[i].queries {
			seg := segmentAt(segs, q.Tick)
			if seg == nil || strqID[i][j] < 0 {
				continue
			}
			area := or.queryCell(q.P).Expand(seg.Eng.Margin())
			t0 := time.Now()
			cand = seg.Eng.Idx.AppendLookupArea(cand[:0], area, q.Tick, nil)
			rec.add(spLookup, strqID[i][j], i, t0, time.Since(t0))
			if !subset(refs[i].probes[j], sortDedup(cand)) {
				or.note(fmt.Errorf("TPI.AppendLookupArea candidates do not cover the HTTP answer of op %d probe %d", i, j))
			}
		}
	}
}

// writeReplay is the write side's layered replay over the fixture's
// columns, plus the paper's quantities the rebuilt summaries expose.
type writeReplay struct {
	rec           *recorder
	points        int
	walBytes      int64
	walReplayS    float64 // wal.Open replaying every record
	compactS      float64 // Repository.Flush of the whole fixture
	buildS        float64
	engineS       float64 // first build of each chunk's engine
	serializeS    float64
	deserializeS  float64
	blobBytes     int64
	codebookWords int
	partitions    int
}

// chunksOf splits columns the way a compaction does: consecutive runs
// spanning at most segTicks ticks.
func chunksOf(cols []*traj.Column, segTicks int) [][]*traj.Column {
	var out [][]*traj.Column
	for len(cols) > 0 {
		n := 1
		for n < len(cols) && cols[n].Tick-cols[0].Tick < segTicks {
			n++
		}
		out = append(out, cols[:n])
		cols = cols[n:]
	}
	return out
}

// replayWrites runs the write levels: Repository.Ingest per column on a
// fresh repository of the same configuration (parent: that column's HTTP
// ack), wal.Log.Append and Commit on a fresh log, one Flush, and — per
// compaction-sized chunk — core.Builder.Append, query.BuildEngine,
// Summary.WriteTo, core.ReadSummary and the engine rebuild a reopen
// pays. ackMS are the HTTP acks of the same columns; openS is the
// measured serve.Open the deserialize and rebuild spans hang under.
func replayWrites(w workload, fx *fixture, ackMS []float64, openS float64, tmp *scratch) (*writeReplay, error) {
	wr := &writeReplay{rec: newRecorder(), points: fx.points}
	rec := wr.rec
	now := time.Now()
	httpID := make([]int32, len(fx.cols))
	for i := range fx.cols {
		httpID[i] = rec.add(spHTTPIngest, -1, i, now, time.Duration(ackMS[i]*1e6))
	}

	// Level: Repository.Ingest. No background compaction here — the one
	// Flush below is the compaction that gets timed.
	opts := repoOptions(w, fx, tmp.dir("repo"), 1)
	opts.HotTicks = noCompaction
	repo, err := serve.Open(opts)
	if err != nil {
		return nil, err
	}
	ingestID := make([]int32, len(fx.cols))
	for i, col := range fx.cols {
		t0 := time.Now()
		err := repo.Ingest(col.Tick, col.IDs, col.Points)
		ingestID[i] = rec.add(spIngest, httpID[i], i, t0, time.Since(t0))
		if err != nil {
			repo.Close()
			return nil, fmt.Errorf("replaying Repository.Ingest: %w", err)
		}
	}
	t0 := time.Now()
	err = repo.Flush()
	d := time.Since(t0)
	compactID := rec.add(spCompact, -1, -1, t0, d)
	wr.compactS = d.Seconds()
	if cerr := repo.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("replaying Repository.Flush: %w", err)
	}

	// Level: the log alone, under the workload's sync policy.
	wopts := wal.Options{Dir: tmp.dir("wal"), Policy: opts.WALSync, GroupCommitWait: opts.GroupCommitWait}
	log, err := wal.Open(wopts, func(wal.Record) error { return nil })
	if err != nil {
		return nil, err
	}
	var frame []byte
	for i, col := range fx.cols {
		r := wal.Record{Tick: col.Tick, IDs: col.IDs, Points: col.Points}
		t0 := time.Now()
		lsn, err := log.Append(r)
		rec.add(spWALAppend, ingestID[i], i, t0, time.Since(t0))
		if err == nil {
			t0 = time.Now()
			err = log.Commit(lsn)
			rec.add(spWALCommit, ingestID[i], i, t0, time.Since(t0))
		}
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("replaying the WAL: %w", err)
		}
		frame = wal.EncodeFrame(frame[:0], r)
		wr.walBytes += int64(len(frame))
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	replayed := 0
	t0 = time.Now()
	log, err = wal.Open(wopts, func(r wal.Record) error { replayed += len(r.IDs); return nil })
	wr.walReplayS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	if replayed != fx.points {
		return nil, fmt.Errorf("WAL replay returned %d of %d points", replayed, fx.points)
	}

	// Level: what one compaction and one reopen are made of.
	openID := rec.add(spOpen, -1, -1, time.Now(), time.Duration(openS*float64(time.Second)))
	for _, chunk := range chunksOf(fx.cols, opts.MaxSegmentTicks) {
		t0 := time.Now()
		b := core.NewBuilder(opts.Build)
		for _, col := range chunk {
			b.Append(col)
		}
		sum := b.Summary()
		d := time.Since(t0)
		rec.add(spBuild, compactID, -1, t0, d)
		wr.buildS += d.Seconds()
		wr.codebookWords += sum.NumCodewords()
		for _, q := range sum.QHistory {
			wr.partitions = max(wr.partitions, q)
		}

		t0 = time.Now()
		if _, err := query.BuildEngine(sum, opts.Index, fx.data); err != nil {
			return nil, err
		}
		d = time.Since(t0)
		rec.add(spEngineBuild, compactID, -1, t0, d)
		wr.engineS += d.Seconds()

		var blob bytes.Buffer
		t0 = time.Now()
		if _, err := sum.WriteTo(&blob); err != nil {
			return nil, err
		}
		d = time.Since(t0)
		rec.add(spSerialize, compactID, -1, t0, d)
		wr.serializeS += d.Seconds()
		wr.blobBytes += int64(blob.Len())

		t0 = time.Now()
		back, err := core.ReadSummary(bytes.NewReader(blob.Bytes()))
		if err != nil {
			return nil, err
		}
		d = time.Since(t0)
		rec.add(spDeserialize, openID, -1, t0, d)
		wr.deserializeS += d.Seconds()

		t0 = time.Now()
		if _, err := query.BuildEngine(back, opts.Index, fx.data); err != nil {
			return nil, err
		}
		rec.add(spEngineBuild, openID, -1, t0, time.Since(t0))
	}
	return wr, nil
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceDigest is what the determinism test compares between two traced
// runs of one seed: the generated inputs and the exactly repeating work
// counts of the first replay round.
type traceDigest struct {
	Data, Ops     string
	CellsScanned  int
	CacheHits     int64
	IDsDecoded    int64
	CodebookWords int
}

// tracedRun is everything a traced run measured, before it is folded
// into the per-layer catalog.
type tracedRun struct {
	op         opKind
	ops, cols  int
	rounds     []*readRound
	writes     *writeReplay
	ackMS      []float64   // the fixture's /v1/ingest acks
	built      serve.Stats // the repository's counters once the fixture was in, before any reopen
	cacheBytes int64
	dev        deviation
	or         *oracle
	gcPauseMS  float64
}

// values folds the measurements into the per-layer metrics. A layer's
// total and self time are milliseconds per op, medians over rounds;
// counts are the first round's, which repeat exactly for a seed.
func (t *tracedRun) values() map[string]float64 {
	nOps := float64(t.ops)
	totals := make([]map[string]float64, len(t.rounds))
	selfs := make([]map[string]float64, len(t.rounds))
	for i, rd := range t.rounds {
		totals[i], selfs[i] = rd.rec.totals()
	}
	overRounds := func(pick func(total, self map[string]float64) float64) float64 {
		xs := make([]float64, len(t.rounds))
		for i := range t.rounds {
			xs[i] = pick(totals[i], selfs[i])
		}
		return median(xs)
	}
	selfOf := func(name string) float64 {
		return overRounds(func(_, self map[string]float64) float64 { return self[name] }) / nOps
	}
	totalOf := func(name string) float64 {
		return overRounds(func(total, _ map[string]float64) float64 { return total[name] }) / nOps
	}
	// Coverage: the in-process top span against the sum of the self times
	// under it. They are equal by construction unless a child pass outran
	// its parent's, which leaves a negative self time to clamp.
	top, under := spWindow, []string{spWindow, spScan, spCursor, spDecode}
	if t.op == opBatch {
		top, under = spBatch, []string{spBatch, spSTRQ, spLookup, spReconstruct}
	}
	coverage := overRounds(func(total, self map[string]float64) float64 {
		covered := 0.0
		for _, name := range under {
			covered += max(0, self[name])
		}
		return ratio(covered, total[top])
	})
	var bare, withSpans, httpMS, allocs []float64
	for _, rd := range t.rounds {
		bare = append(bare, rd.bareMS)
		withSpans = append(withSpans, rd.tracedMS)
		httpMS = append(httpMS, rd.httpMS...)
		allocs = append(allocs, rd.allocPerO)
	}
	wr := t.writes
	wTotal, wSelf := wr.rec.totals()
	nCols, pts := float64(t.cols), float64(wr.points)
	c := t.rounds[0].n
	return map[string]float64{
		"serve.http_self_ms":            selfOf(spHTTP),
		"serve.window_self_ms":          selfOf(spWindow),
		"serve.segments_scanned":        float64(c.segScanned),
		"serve.segments_skipped":        float64(c.segSkipped),
		"serve.batch_self_ms":           selfOf(spBatch),
		"query.strq_self_ms":            selfOf(spSTRQ),
		"query.raw_accesses_per_exact":  ratio(float64(c.rawAccesses), float64(c.exactSealed)),
		"index.lookup_ms":               totalOf(spLookup),
		"core.reconstruct_us_per_point": ratio(1e3*nOps*totalOf(spReconstruct), float64(c.pathPoints)),
		"exec.scan_self_ms":             selfOf(spScan),
		"exec.rows_per_s":               ratio(float64(c.rowsIn), nOps*totalOf(spScan)/1e3),
		"exec.rows_out_per_row_in":      ratio(float64(c.rowsOut), float64(c.rowsIn)),
		"index.cursor_self_ms":          selfOf(spCursor),
		"index.cells_per_s":             ratio(float64(c.scan.CellsScanned), nOps*totalOf(spCursor)/1e3),
		"index.cells_scanned":           float64(c.scan.CellsScanned),
		"index.cells_skipped":           float64(c.scan.CellsSkipped),
		"index.cell_skip_ratio":         ratio(float64(c.scan.CellsSkipped), float64(c.scan.CellsScanned+c.scan.CellsSkipped)),
		"codec.decode_ms":               totalOf(spDecode),
		"codec.ids_per_s":               ratio(float64(c.idsDecoded), nOps*totalOf(spReplayDec)/1e3),
		"codec.bytes_per_id":            ratio(float64(c.encodedSize), float64(c.idsDecoded)),
		"codec.ids_decoded":             float64(c.idsDecoded),
		"cache.hit_ratio":               ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)),
		"cache.hits":                    float64(c.cacheHits),
		"cache.evictions":               float64(c.evictions),
		"cache.resident_bytes":          float64(t.cacheBytes),

		"serve.http_ingest_self_ms":       wSelf[spHTTPIngest] / nCols,
		"serve.ingest_self_ms":            wSelf[spIngest] / nCols,
		"wal.append_ms":                   wTotal[spWALAppend] / nCols,
		"wal.commit_ms":                   wTotal[spWALCommit] / nCols,
		"wal.commits_per_sync":            ratio(float64(t.built.WAL.Commits), float64(t.built.WAL.Syncs)),
		"wal.bytes_per_point":             float64(wr.walBytes) / pts,
		"serve.compact_ms_per_point":      1e3 * wr.compactS / pts,
		"serve.compactions":               float64(t.built.Compactions),
		"serve.ingest_ack_max_ms":         slices.Max(t.ackMS),
		"core.build_points_per_s":         pts / wr.buildS,
		"query.engine_build_points_per_s": pts / wr.engineS,
		"core.serialize_mb_per_s":         float64(wr.blobBytes) / 1e6 / wr.serializeS,

		"core.deserialize_mb_per_s": float64(wr.blobBytes) / 1e6 / wr.deserializeS,
		"wal.replay_points_per_s":   pts / wr.walReplayS,
		"serve.open_self_s":         wSelf[spOpen] / 1e3,

		"core.codebook_words":         float64(wr.codebookWords),
		"core.partitions":             float64(wr.partitions),
		"core.max_dev_over_bound":     t.dev.maxOverBound,
		"core.mae_m":                  t.dev.maeMeters,
		"query.recall_min":            t.or.recallMin,
		"query.precision_approx_mean": t.or.precisionMean(),

		"client.query_p99_ms":      quantile(httpMS, 0.99),
		"client.ingest_ack_p99_ms": quantile(t.ackMS, 0.99),
		"client.query_samples":     float64(len(httpMS)),

		"runtime.alloc_bytes_per_op": median(allocs),
		"runtime.gc_pause_ms_total":  t.gcPauseMS,
		"client.self_ms_per_op":      totalOf(spClient),
		"trace.overhead_ratio":       median(withSpans)/median(bare) - 1,
		"trace.coverage_ratio":       coverage,
	}
}

// runTraced is one traced run: build the fixture once, replay the write
// side, then replay the read side in rounds — at least two, and more
// until half of `seconds` has passed (a round runs every level, so it is
// several times the length of its HTTP pass).
func runTraced(seed int64, w workload, seconds float64, spansPath string, tmp *scratch) (*result, error) {
	res, _, err := traced(seed, w, seconds, spansPath, tmp)
	return res, err
}

func traced(seed int64, w workload, seconds float64, spansPath string, tmp *scratch) (*result, *traceDigest, error) {
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	var (
		e     *env
		ops   []op
		openS float64 // the measured serve.Open the write replay's reopen spans hang under
		res   = &result{}
		t     = &tracedRun{op: w.Op}
	)
	if w.Live {
		// One live round: its acks are the HTTP level of the write replay,
		// and the reads its reader issued are the op list of the read replay.
		live, le, err := liveRound(seed, w, tmp.dir("repo"), w.ReplayOps, 1)
		if err != nil {
			return nil, nil, err
		}
		e, t.ackMS, t.built, openS = le, live.load.ackMS, live.stats, live.recoveryS
		res.attempted = len(live.load.ackMS) + len(live.readMS)
		res.failed = live.load.failed + live.readFails
		res.firstErr = live.firstErr
		for _, r := range live.reads {
			ops = append(ops, r.op)
		}
	} else {
		b, err := setUp(seed, w, tmp.dir("repo"), 1)
		if err != nil {
			return nil, nil, err
		}
		e, t.ackMS, t.built = b.env, b.load.ackMS, b.env.repo.Stats()
		res.attempted, res.failed = len(t.ackMS), b.load.failed
		ops = e.fx.ops[:min(w.ReplayOps, len(e.fx.ops))]
		if openS, err = e.reopen(); err != nil {
			return nil, nil, err
		}
	}
	defer e.close()
	fx := e.fx
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("no read ops to replay")
	}
	if res.failed > 0 && res.firstErr == nil {
		res.firstErr = fmt.Errorf("%d ingest requests were not acked in full", res.failed)
	}
	t.ops, t.cols = len(ops), len(fx.cols)
	dig := &traceDigest{}
	dig.Data, dig.Ops = fx.digest()

	var err error
	if t.writes, err = replayWrites(w, fx, t.ackMS, openS, tmp); err != nil {
		return nil, nil, err
	}
	dig.CodebookWords = t.writes.codebookWords

	// One unrecorded warm-up round fills the caches and pools the way the
	// timed phase of an untraced run finds them after its first moments.
	t.or = newOracle(fx, e.repo)
	replayReads(e, ops, t.or, true)
	start := time.Now()
	for n := 0; n < 2 || time.Since(start).Seconds() < seconds/2; n++ {
		t.rounds = append(t.rounds, replayReads(e, ops, t.or, n%2 == 0))
	}
	first := t.rounds[0].n
	dig.CellsScanned, dig.CacheHits, dig.IDsDecoded = first.scan.CellsScanned, first.cacheHits, first.idsDecoded
	t.cacheBytes = e.repo.Stats().Cache.Bytes

	// The paper's quantities: recall and precision over brute-forced ops,
	// deviation over every point read back.
	checkSample(e, t.or, sampleOps(ops, w.OracleOps))
	t.dev = t.or.readable(e.repo, fx.cols[len(fx.cols)-1].Tick+1)
	res.attempted += t.or.attempted
	res.failed += t.or.failed
	if res.firstErr == nil {
		res.firstErr = t.or.firstErr
	}
	runtime.ReadMemStats(&gc1)
	t.gcPauseMS = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	res.values = t.values()

	// Spans are written once, at exit: the write side, then the last read
	// round, renumbered into one id space.
	if spansPath == "" {
		spansPath = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	}
	all := &recorder{spans: append([]span(nil), t.writes.rec.spans...)}
	shift := int32(len(all.spans))
	for _, s := range t.rounds[len(t.rounds)-1].rec.spans {
		s.ID += shift
		if s.Parent >= 0 {
			s.Parent += shift
		}
		all.spans = append(all.spans, s)
	}
	if err := all.write(spansPath); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, dig, nil
}
