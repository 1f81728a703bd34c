// Package core implements the heart of the paper: the error-bounded
// predictive quantizer E-PQ (Algorithm 1) and its partition-wise extension
// PPQ (§3.2), producing the queryable summary
// ({P_j[t]}, C, {b_i^t}, CQC) of the trajectory stream.
//
// Per timestamp t the builder:
//
//  1. partitions the live trajectory points by spatial proximity or
//     autocorrelation similarity (ε_p, Equations 7/8, incremental §3.2.2);
//  2. fits one linear prediction function f_j per partition over the
//     previous k *reconstructed* points (Equations 1–2) — the decoder
//     only ever has reconstructions, so predicting from them keeps
//     encoder and decoder in lock-step;
//  3. quantizes the prediction errors against the error-bounded codebook
//     C (Equation 3), growing it only when an error violates ε₁;
//  4. optionally emits a CQC code for the residual (§4), tightening the
//     per-point deviation from ε₁ to (√2/2)·g_s (Lemma 3).
//
// The summary is fully decodable: Decode replays prediction +
// codeword + CQC refinement from the stored parameters alone, and the
// builder's cached reconstructions are bit-identical to the decoder's
// output (tested).
package core

import (
	"fmt"
	"sort"
	"time"

	"ppqtraj/internal/codec"
	"ppqtraj/internal/cqc"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/predict"
	"ppqtraj/internal/quant"
	"ppqtraj/internal/traj"
)

// Options configures a Builder. The zero value is not useful; use
// DefaultOptions as a starting point.
type Options struct {
	// K is the AR lag order k of the prediction function.
	K int
	// Epsilon1 is ε₁, the codebook error bound (coordinate units).
	Epsilon1 float64
	// EpsilonP is ε_p, the partition radius threshold (Equations 7/8).
	EpsilonP float64
	// Mode selects spatial (PPQ-S), autocorrelation (PPQ-A) or no
	// partitioning (E-PQ).
	Mode partition.Mode
	// NoPrediction disables the predictive stage entirely (the
	// Q-trajectory baseline: raw positions are quantized directly).
	NoPrediction bool
	// UseCQC enables coordinate quadtree coding of the residual error
	// (PPQ-S/PPQ-A vs their -basic variants).
	UseCQC bool
	// GS is g_s, the CQC grid cell size (coordinate units). Required when
	// UseCQC is set.
	GS float64
	// FixedWords, when > 0, switches to the equal-budget comparison mode
	// of Tables 2–4: an independent codebook with exactly FixedWords
	// codewords is learned for each timestamp, instead of the incremental
	// error-bounded global codebook.
	FixedWords int
	// ClusterQuantizer selects the clustering growth path of the
	// incremental quantizer (the paper's vector-quantization step, whose
	// running time scales with the error range — Table 5's measure). The
	// default greedy path is faster and fully online.
	ClusterQuantizer bool
	// AutocorrWindow is the raw-point window used to estimate the lag-k
	// autocorrelation features; defaults to 4·K+2.
	AutocorrWindow int
	// MaxPartitions caps q (0 = no cap).
	MaxPartitions int
	// Seed makes the build deterministic.
	Seed int64
}

// DefaultOptions returns the paper's §6.1 defaults for a given dataset
// scale: ε₁ = 0.001° (≈111 m), g_s = 50 m, spatial ε_p as provided.
func DefaultOptions(mode partition.Mode, epsP float64) Options {
	return Options{
		K:        3,
		Epsilon1: 0.001,
		EpsilonP: epsP,
		Mode:     mode,
		UseCQC:   true,
		GS:       geo.MetersToDegrees(50),
	}
}

func (o Options) withDefaults() Options {
	if o.K < 1 {
		o.K = 3
	}
	if o.AutocorrWindow < o.K+2 {
		o.AutocorrWindow = 32
	}
	// Autocorrelation features are statistical estimates; a safety cap on
	// q keeps coefficient storage bounded when the estimate noise exceeds
	// ε_p (the paper's q tops out around 83 on Porto, Figure 8).
	if o.Mode == partition.Autocorr && o.MaxPartitions == 0 {
		o.MaxPartitions = 64
	}
	return o
}

// PointEntry is the stored code of one trajectory point: the partition
// whose coefficients predicted it, the codeword index b_i^t, and (when CQC
// is enabled) the residual code.
type PointEntry struct {
	Part int32
	Word int32
	CQC  cqc.Code
}

// TickSummary holds the per-timestamp side of the summary: the prediction
// coefficients of every partition active at that tick and, in FixedWords
// mode, the tick's codebook.
type TickSummary struct {
	Tick   int
	Coeffs map[int]predict.Coefficients
	Book   *quant.Codebook // nil outside FixedWords mode
}

// TrajSummary is one trajectory's compressed representation plus a
// reconstruction cache (derivable from the entries, excluded from the
// size accounting).
type TrajSummary struct {
	Start   int
	Entries []PointEntry
	Recon   []geo.Point
}

// End returns the first tick after the trajectory.
func (ts *TrajSummary) End() int { return ts.Start + len(ts.Entries) }

// Summary is the complete PPQ-trajectory summary.
type Summary struct {
	Opts  Options
	Book  *quant.Codebook // global codebook (incremental mode)
	Coder *cqc.Coder      // nil unless UseCQC
	Ticks map[int]*TickSummary
	Trajs map[traj.ID]*TrajSummary

	// Stats
	NumPoints     int
	QHistory      []int // q at each processed tick (Figure 8)
	BuildTime     time.Duration
	PartitionTime time.Duration
	// ObservedMaxErr is the largest original-vs-final deviation seen during
	// the build — the effective bound in FixedWords mode.
	ObservedMaxErr float64
	sumAbsErr      float64
	partChanges    int // per-point partition-label transitions (size accounting)
	maxLabel       int
}

// MAE returns the mean absolute (Euclidean) deviation between original
// and reconstructed points in coordinate units.
func (s *Summary) MAE() float64 {
	if s.NumPoints == 0 {
		return 0
	}
	return s.sumAbsErr / float64(s.NumPoints)
}

// MAEMeters returns MAE under the paper's degree→meter conversion.
func (s *Summary) MAEMeters() float64 { return geo.DegreesToMeters(s.MAE()) }

// NumCodewords returns the total stored codewords (Table 6): the global
// codebook in incremental mode, or the sum of per-tick codebooks in
// FixedWords mode.
func (s *Summary) NumCodewords() int {
	if s.Opts.FixedWords > 0 {
		n := 0
		for _, t := range s.Ticks {
			if t.Book != nil {
				n += t.Book.Len()
			}
		}
		return n
	}
	return s.Book.Len()
}

// SizeBytes returns the storage footprint of the summary as the paper's
// compression-ratio accounting counts it (§6.4): codebook(s), prediction
// coefficients per partition per timestamp, per-point codeword indexes,
// per-point CQC codes, run-length-coded partition membership, and
// per-trajectory metadata. The reconstruction cache is derivable and not
// counted.
func (s *Summary) SizeBytes() int {
	bits := 0
	// Codebook(s).
	if s.Opts.FixedWords > 0 {
		for _, t := range s.Ticks {
			if t.Book != nil {
				bits += t.Book.Bytes() * 8
			}
		}
	} else {
		bits += s.Book.Bytes() * 8
	}
	// Prediction coefficients: k fixed-point values per partition per tick
	// (see predict.QuantizeCoefficients).
	if !s.Opts.NoPrediction {
		for _, t := range s.Ticks {
			bits += len(t.Coeffs) * s.Opts.K * predict.CoefficientBits
		}
	}
	// Per-point codeword indexes.
	if s.Opts.FixedWords > 0 {
		for _, tr := range s.Trajs {
			for i := range tr.Entries {
				tick := tr.Start + i
				if ts := s.Ticks[tick]; ts != nil && ts.Book != nil {
					bits += codec.BitsFor(ts.Book.Len())
				}
			}
		}
	} else {
		bits += s.NumPoints * codec.BitsFor(s.Book.Len())
	}
	// CQC codes.
	if s.Coder != nil {
		bits += s.NumPoints * s.Coder.CodeBits()
	}
	// Partition membership: label changes run-length encoded — a label
	// plus a tick offset per transition.
	labelBits := codec.BitsFor(s.maxLabel + 1)
	bits += s.partChanges * (labelBits + 16)
	// Per-trajectory metadata: start tick.
	bits += len(s.Trajs) * 32
	return (bits + 7) / 8
}

// CompressionRatio returns rawBytes / SizeBytes().
func (s *Summary) CompressionRatio(rawBytes int) float64 {
	sz := s.SizeBytes()
	if sz == 0 {
		return 0
	}
	return float64(rawBytes) / float64(sz)
}

// ReconstructedPoint returns the (CQC-refined when enabled) reconstruction
// of trajectory id at the given tick.
func (s *Summary) ReconstructedPoint(id traj.ID, tick int) (geo.Point, bool) {
	tr, ok := s.Trajs[id]
	if !ok || tick < tr.Start || tick >= tr.End() {
		return geo.Point{}, false
	}
	return tr.Recon[tick-tr.Start], true
}

// ReconstructPath returns the reconstructions of trajectory id for ticks
// [from, from+l), clipped to the trajectory's range — the TPQ
// reconstruction primitive (Definition 5.3).
func (s *Summary) ReconstructPath(id traj.ID, from, l int) []geo.Point {
	tr, ok := s.Trajs[id]
	if !ok {
		return nil
	}
	lo, hi := from, from+l
	if lo < tr.Start {
		lo = tr.Start
	}
	if hi > tr.End() {
		hi = tr.End()
	}
	if lo >= hi {
		return nil
	}
	return tr.Recon[lo-tr.Start : hi-tr.Start]
}

// bookAt returns the codebook the words stored at tick index: the tick's
// own in FixedWords mode, the global one otherwise. Nil when there is none.
func (s *Summary) bookAt(tick int) *quant.Codebook {
	if s.Opts.FixedWords > 0 {
		if ts := s.Ticks[tick]; ts != nil {
			return ts.Book
		}
		return nil
	}
	return s.Book
}

// wordOf returns the codeword for an entry at the given tick. A missing
// book or an out-of-range index (only a corrupt summary has either) is
// ErrBadFormat.
func (s *Summary) wordOf(tick int, e PointEntry) (geo.Point, error) {
	book := s.bookAt(tick)
	if book == nil || e.Word < 0 || int(e.Word) >= book.Len() {
		return geo.Point{}, fmt.Errorf("%w: codeword %d at tick %d outside its codebook", ErrBadFormat, e.Word, tick)
	}
	return book.Word(int(e.Word)), nil
}

// Decode replays the decoder for one trajectory purely from the stored
// summary parameters (coefficients, codebook, CQC codes) and returns the
// reconstructed points. The builder's cache must match this exactly; the
// test suite enforces it.
func (s *Summary) Decode(id traj.ID) ([]geo.Point, error) {
	tr, ok := s.Trajs[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown trajectory %d", id)
	}
	k := s.Opts.K
	var history []geo.Point
	out := make([]geo.Point, 0, len(tr.Entries))
	for i, e := range tr.Entries {
		tick := tr.Start + i
		var pred geo.Point
		if !s.Opts.NoPrediction {
			switch {
			case len(history) == 0:
				// cold start: predict the origin (P_j[t] = 0 for t ≤ k)
			case len(history) < k:
				pred = history[len(history)-1]
			default:
				ts := s.Ticks[tick]
				if ts == nil {
					return nil, fmt.Errorf("core: missing tick summary %d", tick)
				}
				coeffs, ok := ts.Coeffs[int(e.Part)]
				if !ok {
					return nil, fmt.Errorf("core: missing coefficients for partition %d at tick %d", e.Part, tick)
				}
				pred = predict.Predict(coeffs, history)
			}
		}
		word, err := s.wordOf(tick, e)
		if err != nil {
			return nil, err
		}
		recon := pred.Add(word)
		final := recon
		if s.Coder != nil {
			final = s.Coder.Refine(recon, e.CQC)
		}
		out = append(out, final)
		history = append(history, final)
		if len(history) > k {
			history = history[1:]
		}
	}
	return out, nil
}

type trajState struct {
	history   []geo.Point // last K reconstructions, oldest first
	rawWindow []geo.Point // recent raw points for autocorrelation features
	arFeature []float64   // EMA-smoothed autocorrelation feature
}

// buildWorker is the fitting and feature workspace Append reuses, so its
// per-partition and per-point phases allocate nothing in steady state.
type buildWorker struct {
	fitter    predict.Fitter
	ar        predict.ARScratch
	rawFeat   []float64
	histories [][]geo.Point
	targets   []geo.Point
}

// appendScratch holds the per-column buffers Append reuses across calls.
type appendScratch struct {
	states  []*trajState   // per column index, nil for new trajectories
	trs     []*TrajSummary // per column index, nil for new trajectories
	feats   [][]float64    // per-point partitioning features
	featBuf []float64      // backing array for feats
	preds   []geo.Point    // per-point predictions
	parts   []int32        // per-point partition labels
	errs    []geo.Point    // per-point prediction errors
	words   []int          // per-point codeword indexes
}

// resize readies every per-point buffer for a column of n points.
func (sc *appendScratch) resize(n int) {
	if cap(sc.states) < n {
		sc.states = make([]*trajState, n)
		sc.trs = make([]*TrajSummary, n)
		sc.feats = make([][]float64, n)
		sc.preds = make([]geo.Point, n)
		sc.parts = make([]int32, n)
		sc.errs = make([]geo.Point, n)
		sc.words = make([]int, n)
	}
	sc.states = sc.states[:n]
	sc.trs = sc.trs[:n]
	sc.feats = sc.feats[:n]
	sc.preds = sc.preds[:n]
	sc.parts = sc.parts[:n]
	sc.errs = sc.errs[:n]
	sc.words = sc.words[:n]
}

// features readies the flat feature backing for n points of dim d and
// points feats[i] at its slot.
func (sc *appendScratch) features(n, d int) {
	if cap(sc.featBuf) < n*d {
		sc.featBuf = make([]float64, n*d)
	}
	sc.featBuf = sc.featBuf[:n*d]
	for i := 0; i < n; i++ {
		sc.feats[i] = sc.featBuf[i*d : (i+1)*d : (i+1)*d]
	}
}

// Builder consumes a trajectory stream one timestamp at a time
// (Algorithm 1's outer loop) and produces a Summary.
type Builder struct {
	opts    Options
	part    *partition.Partitioner
	inc     *quant.Incremental
	coder   *cqc.Coder
	sum     *Summary
	state   map[traj.ID]*trajState
	work    buildWorker
	scratch appendScratch
}

// NewBuilder creates a Builder. It panics on inconsistent options
// (UseCQC without GS, non-positive ε₁ in incremental mode).
func NewBuilder(opts Options) *Builder {
	opts = opts.withDefaults()
	if opts.UseCQC && opts.GS <= 0 {
		panic("core: UseCQC requires GS > 0")
	}
	if opts.FixedWords <= 0 && opts.Epsilon1 <= 0 {
		panic("core: incremental mode requires Epsilon1 > 0")
	}
	b := &Builder{
		opts: opts,
		part: partition.New(partition.Options{
			Mode:          opts.Mode,
			EpsP:          opts.EpsilonP,
			MaxPartitions: opts.MaxPartitions,
			Seed:          opts.Seed,
		}),
		state: make(map[traj.ID]*trajState),
		sum: &Summary{
			Opts:  opts,
			Ticks: make(map[int]*TickSummary),
			Trajs: make(map[traj.ID]*TrajSummary),
		},
	}
	if opts.FixedWords <= 0 {
		if opts.ClusterQuantizer {
			b.inc = quant.NewIncrementalClustered(opts.Epsilon1)
		} else {
			b.inc = quant.NewIncremental(opts.Epsilon1)
		}
		b.sum.Book = b.inc.Book
	}
	if opts.UseCQC {
		eps := opts.Epsilon1
		if opts.FixedWords > 0 && eps <= 0 {
			// Fixed-budget mode has no hard bound; size the CQC grid for
			// a generous multiple of the cell size (two extra code bits
			// per 2× radius, by the quadtree's log depth).
			eps = 16 * opts.GS
		}
		b.coder = cqc.NewCoder(eps, opts.GS)
		b.sum.Coder = b.coder
	}
	return b
}

// features fills the scratch feature slots for every column member.
// Each point's feature depends only on its own trajectory's state.
func (b *Builder) features(col *traj.Column) {
	sc := &b.scratch
	switch b.opts.Mode {
	case partition.Autocorr:
		// Per-trajectory Yule-Walker estimates over short windows are
		// noisy; an exponential moving average stabilizes the feature so
		// partitions do not churn tick to tick (churn would bloat both
		// the membership coding and the coefficient storage).
		const alpha = 0.1
		k := b.opts.K
		sc.features(col.Len(), k)
		wk := &b.work
		if cap(wk.rawFeat) < k {
			wk.rawFeat = make([]float64, k)
		}
		raw := wk.rawFeat[:k]
		for i, p := range col.Points {
			st := sc.states[i]
			var window []geo.Point
			if st != nil {
				window = st.rawWindow
			}
			wk.ar.FeatureInto(raw, window, p, k)
			out := sc.feats[i]
			if st != nil && st.arFeature != nil {
				for d := range raw {
					st.arFeature[d] = (1-alpha)*st.arFeature[d] + alpha*raw[d]
				}
				copy(out, st.arFeature)
			} else {
				if st != nil {
					st.arFeature = append([]float64(nil), raw...)
				}
				copy(out, raw)
			}
		}
	default:
		sc.features(col.Len(), 2)
		for i, p := range col.Points {
			sc.feats[i][0] = p.X
			sc.feats[i][1] = p.Y
		}
	}
}

// Append processes one timestamp column (Algorithm 1 lines 3–8 across all
// partitions). Columns must arrive in strictly increasing tick order.
//
// Append runs on the caller's goroutine; parallelism lives one level up,
// where a server builds independent segments side by side. All per-point
// buffers are builder-owned scratch; steady-state Append allocates only
// what the summary itself retains.
func (b *Builder) Append(col *traj.Column) {
	start := time.Now()
	defer func() { b.sum.BuildTime += time.Since(start) }()
	n := col.Len()
	if n == 0 {
		return
	}
	for i, p := range col.Points {
		if !p.IsFinite() {
			panic(fmt.Sprintf("core: non-finite position %v for trajectory %d at tick %d",
				p, col.IDs[i], col.Tick))
		}
	}
	sc := &b.scratch
	sc.resize(n)
	// One map pass resolves every per-trajectory pointer the later phases
	// need; the hot loops then index the scratch slices instead of
	// re-hashing IDs.
	for i, id := range col.IDs {
		sc.states[i] = b.state[id]
		sc.trs[i] = b.sum.Trajs[id]
	}

	b.features(col)
	res := b.part.Step(col.IDs, sc.feats)
	b.sum.QHistory = append(b.sum.QHistory, res.Q)

	k := b.opts.K
	tickSum := &TickSummary{Tick: col.Tick, Coeffs: make(map[int]predict.Coefficients, len(res.Groups))}
	b.sum.Ticks[col.Tick] = tickSum

	// Fit and predict per partition group.
	wk := &b.work
	for g, members := range res.Groups {
		label := res.Labels[g]
		if label > b.sum.maxLabel {
			b.sum.maxLabel = label
		}
		var coeffs predict.Coefficients
		if !b.opts.NoPrediction {
			// Fit Equation 1 over the members with a full k-history.
			wk.histories = wk.histories[:0]
			wk.targets = wk.targets[:0]
			for _, i := range members {
				st := sc.states[i]
				if st != nil && len(st.history) >= k {
					wk.histories = append(wk.histories, st.history)
					wk.targets = append(wk.targets, col.Points[i])
				}
			}
			coeffs = wk.fitter.Fit(k, wk.histories, wk.targets)
			tickSum.Coeffs[label] = coeffs
		}
		for _, i := range members {
			sc.parts[i] = int32(label)
			if b.opts.NoPrediction {
				sc.preds[i] = geo.Point{} // prediction stays the origin
				continue
			}
			st := sc.states[i]
			switch {
			case st == nil || len(st.history) == 0:
				sc.preds[i] = geo.Point{} // origin
			case len(st.history) < k:
				sc.preds[i] = st.history[len(st.history)-1]
			default:
				sc.preds[i] = predict.Predict(coeffs, st.history)
			}
		}
	}
	// Quantize the prediction errors (Algorithm 1 line 6) in input order:
	// codebook growth is order-dependent.
	for i := range sc.errs {
		sc.errs[i] = col.Points[i].Sub(sc.preds[i])
	}
	var book *quant.Codebook
	if b.opts.FixedWords > 0 {
		fixed := quant.FixedKMeans(sc.errs, b.opts.FixedWords, 20, b.opts.Seed+int64(col.Tick))
		copy(sc.words, fixed.Codes)
		book = fixed.Book
		tickSum.Book = book
	} else {
		b.inc.QuantizeInto(sc.words, sc.errs)
		book = b.inc.Book
	}

	// Reconstruct, refine and record, in input order.
	for i, id := range col.IDs {
		recon := sc.preds[i].Add(book.Word(sc.words[i]))
		entry := PointEntry{Part: sc.parts[i], Word: int32(sc.words[i])}
		final := recon
		if b.coder != nil {
			entry.CQC = b.coder.Encode(col.Points[i], recon)
			final = b.coder.Refine(recon, entry.CQC)
		}
		tr := sc.trs[i]
		if tr == nil {
			tr = &TrajSummary{Start: col.Tick}
			b.sum.Trajs[id] = tr
			b.sum.partChanges++ // initial label
		} else if len(tr.Entries) > 0 && tr.Entries[len(tr.Entries)-1].Part != sc.parts[i] {
			b.sum.partChanges++
		}
		tr.Entries = append(tr.Entries, entry)
		tr.Recon = append(tr.Recon, final)

		st := sc.states[i]
		if st == nil {
			st = &trajState{history: make([]geo.Point, 0, k+1)}
			b.state[id] = st
		}
		// Bounded windows shift by copy instead of re-slicing so their
		// backing arrays never creep (re-slicing forces a reallocation
		// every few appends).
		if len(st.history) >= k {
			copy(st.history, st.history[1:])
			st.history = st.history[:len(st.history)-1]
		}
		st.history = append(st.history, final)
		if b.opts.Mode == partition.Autocorr {
			if len(st.rawWindow) >= b.opts.AutocorrWindow {
				copy(st.rawWindow, st.rawWindow[1:])
				st.rawWindow = st.rawWindow[:b.opts.AutocorrWindow-1]
			}
			st.rawWindow = append(st.rawWindow, col.Points[i])
		}

		dev := col.Points[i].Dist(final)
		b.sum.sumAbsErr += dev
		if dev > b.sum.ObservedMaxErr {
			b.sum.ObservedMaxErr = dev
		}
		b.sum.NumPoints++
	}
	b.sum.PartitionTime = b.part.Stats().Elapsed
}

// Summary finalizes and returns the summary. The builder can keep
// appending afterwards; the summary is live state, not a copy.
func (b *Builder) Summary() *Summary { return b.sum }

// PartitionStats exposes the partitioner's work counters (Figures 7–8).
func (b *Builder) PartitionStats() partition.Stats { return b.part.Stats() }

// Build runs the full stream of a dataset through a fresh builder — the
// common offline entry point.
func Build(d *traj.Dataset, opts Options) *Summary {
	b := NewBuilder(opts)
	_ = d.Stream(func(col *traj.Column) error {
		b.Append(col)
		return nil
	})
	return b.Summary()
}

// SortedTicks returns the processed tick values in increasing order.
func (s *Summary) SortedTicks() []int {
	out := make([]int, 0, len(s.Ticks))
	for t := range s.Ticks {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// StreamColumns feeds every reconstructed column to fn in ascending tick
// order, IDs ascending within a column — the query.Source contract. The
// whole sweep costs O(points + tick span): trajectories occupy contiguous
// tick ranges, so the columns are materialized with one counting sort
// over the tick axis instead of probing every (tick, id) pair. The slices
// passed to fn are valid only during the call.
func (s *Summary) StreamColumns(fn func(tick int, ids []traj.ID, pts []geo.Point) error) error {
	ticks := s.SortedTicks()
	if len(ticks) == 0 {
		return nil
	}
	minT := ticks[0]
	span := ticks[len(ticks)-1] - minT + 1
	offsets := make([]int, span+1)
	ids := s.TrajIDs()
	for _, id := range ids {
		tr := s.Trajs[id]
		for t := tr.Start; t < tr.End(); t++ {
			offsets[t-minT+1]++
		}
	}
	for t := 1; t <= span; t++ {
		offsets[t] += offsets[t-1]
	}
	fill := make([]int, span)
	idBuf := make([]traj.ID, s.NumPoints)
	ptBuf := make([]geo.Point, s.NumPoints)
	for _, id := range ids { // ascending IDs → each column comes out sorted
		tr := s.Trajs[id]
		for t := tr.Start; t < tr.End(); t++ {
			c := t - minT
			slot := offsets[c] + fill[c]
			fill[c]++
			idBuf[slot] = id
			ptBuf[slot] = tr.Recon[t-tr.Start]
		}
	}
	for c := 0; c < span; c++ {
		lo, hi := offsets[c], offsets[c+1]
		if lo == hi {
			continue
		}
		if err := fn(minT+c, idBuf[lo:hi], ptBuf[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// TrajIDs returns the summarized trajectory IDs in increasing order.
func (s *Summary) TrajIDs() []traj.ID {
	out := make([]traj.ID, 0, len(s.Trajs))
	for id := range s.Trajs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxDeviation returns the worst-case distance between a reconstructed
// point and its original: the observed maximum in FixedWords mode (which
// has no a-priori bound, and whose CQC encodes may clamp), otherwise the
// Lemma 3 bound under CQC, otherwise ε₁.
func (s *Summary) MaxDeviation() float64 {
	if s.Opts.FixedWords > 0 {
		return s.ObservedMaxErr
	}
	if s.Coder != nil {
		return s.Coder.MaxDeviation()
	}
	return s.Opts.Epsilon1
}
