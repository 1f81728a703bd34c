package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strconv"

	"ppqtraj/internal/gen"
	"ppqtraj/internal/geo"
	"ppqtraj/internal/serve"
	"ppqtraj/internal/traj"
)

// fixture is everything a workload generates from its seed before the
// program under test is involved: the trajectories, their per-tick
// columns, the pre-encoded /v1/ingest bodies and the frozen op list.
type fixture struct {
	data   *traj.Dataset
	cols   []*traj.Column // ascending ticks, non-empty
	bodies [][]byte       // bodies[i] is the /v1/ingest request for cols[i]
	points int
	gc     float64 // index cell size in degrees
	ops    []op
}

// op is one read request with everything the oracle needs to check it.
type op struct {
	win     serve.WindowRequest // Op == opWindow
	queries []serve.STRQRequest // Op == opBatch
}

// makeFleet generates the workload's trajectories: Groups merged
// gen.Porto sub-fleets, IDs assigned in merge order.
func makeFleet(seed int64, f fleet) *traj.Dataset {
	var all []*traj.Trajectory
	per := f.Trajectories / f.Groups
	for g := 0; g < f.Groups; g++ {
		n := per
		if g == f.Groups-1 {
			n = f.Trajectories - per*(f.Groups-1)
		}
		d := gen.Porto(gen.Config{
			NumTrajectories: n,
			MinLen:          f.MinLen,
			MaxLen:          f.MaxLen,
			Horizon:         f.Horizon,
			Seed:            seed*1000003 + int64(g),
		})
		all = append(all, d.All()...)
	}
	return traj.NewDataset(all)
}

// columnsOf is traj.Dataset.Stream in O(points): the dataset's own
// ColumnAt is O(trajectories) per tick.
func columnsOf(d *traj.Dataset) []*traj.Column {
	cols := make([]*traj.Column, d.MaxTick())
	for i := range cols {
		cols[i] = &traj.Column{Tick: i}
	}
	for _, tr := range d.All() { // ascending ID, so columns come out ID-sorted
		for i, p := range tr.Points {
			c := cols[tr.Start+i]
			c.IDs = append(c.IDs, tr.ID)
			c.Points = append(c.Points, p)
		}
	}
	out := cols[:0]
	for _, c := range cols {
		if c.Len() > 0 {
			out = append(out, c)
		}
	}
	return out
}

// appendFloat writes the shortest decimal that parses back to exactly f,
// which is also what encoding/json emits for these magnitudes.
func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// ingestBody encodes one column as a /v1/ingest request. Hand-rolled
// because set-up encodes every point of the fixture once per build and
// reflection-based encoding would be a third of set-up time.
func ingestBody(col *traj.Column) []byte {
	b := make([]byte, 0, 64+56*col.Len())
	b = append(b, `{"ticks":[{"tick":`...)
	b = strconv.AppendInt(b, int64(col.Tick), 10)
	b = append(b, `,"points":[`...)
	for i, id := range col.IDs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, uint64(id), 10)
		b = append(b, `,"x":`...)
		b = appendFloat(b, col.Points[i].X)
		b = append(b, `,"y":`...)
		b = appendFloat(b, col.Points[i].Y)
		b = append(b, '}')
	}
	return append(b, `]}]}`...)
}

func appendRect(b []byte, r geo.Rect) []byte {
	b = append(b, `{"MinX":`...)
	b = appendFloat(b, r.MinX)
	b = append(b, `,"MinY":`...)
	b = appendFloat(b, r.MinY)
	b = append(b, `,"MaxX":`...)
	b = appendFloat(b, r.MaxX)
	b = append(b, `,"MaxY":`...)
	b = appendFloat(b, r.MaxY)
	return append(b, '}')
}

// body encodes the op's request; the client builds it per request, so
// its cost is part of what a caller pays (client.self_ms_per_op).
func (o *op) body(b []byte) []byte {
	if o.queries == nil {
		b = append(b, `{"rect":`...)
		b = appendRect(b, o.win.Rect)
		b = append(b, `,"from":`...)
		b = strconv.AppendInt(b, int64(o.win.From), 10)
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(o.win.To), 10)
		b = append(b, `,"exact":`...)
		b = strconv.AppendBool(b, o.win.Exact)
		return append(b, '}')
	}
	b = append(b, `{"queries":[`...)
	for i, q := range o.queries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"p":{"X":`...)
		b = appendFloat(b, q.P.X)
		b = append(b, `,"Y":`...)
		b = appendFloat(b, q.P.Y)
		b = append(b, `},"tick":`...)
		b = strconv.AppendInt(b, int64(q.Tick), 10)
		b = append(b, `,"exact":`...)
		b = strconv.AppendBool(b, q.Exact)
		b = append(b, `,"path_len":`...)
		b = strconv.AppendInt(b, int64(q.PathLen), 10)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func (o *op) path() string {
	if o.queries == nil {
		return "/v1/window"
	}
	return "/v1/query"
}

// sampler draws data positions uniformly over points (not over
// trajectories), so denser places are probed more, as real traffic
// would.
type sampler struct {
	rng  *rand.Rand
	cols []*traj.Column
	cum  []int // cum[i] = points in cols[:i+1]
}

func newSampler(rng *rand.Rand, cols []*traj.Column) *sampler {
	s := &sampler{rng: rng, cols: cols, cum: make([]int, len(cols))}
	n := 0
	for i, c := range cols {
		n += c.Len()
		s.cum[i] = n
	}
	return s
}

// draw returns one data point and its tick.
func (s *sampler) draw() (geo.Point, int) {
	k := s.rng.Intn(s.cum[len(s.cum)-1])
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c := s.cols[lo]
	base := 0
	if lo > 0 {
		base = s.cum[lo-1]
	}
	return c.Points[k-base], c.Tick
}

// windowAround is a SpanTicks-long, SideCells-wide window that contains
// the data point (p, tick), clipped to the fixture's tick range.
func windowAround(rng *rand.Rand, w workload, gc float64, p geo.Point, tick, lastTick int) serve.WindowRequest {
	half := gc * w.SideCells / 2
	from := tick - rng.Intn(w.SpanTicks)
	from = max(0, min(from, lastTick-w.SpanTicks+1))
	return serve.WindowRequest{
		Rect: geo.Rect{MinX: p.X - half, MinY: p.Y - half, MaxX: p.X + half, MaxY: p.Y + half},
		From: from,
		To:   min(lastTick, from+w.SpanTicks-1),
	}
}

// makeOps freezes the workload's op list. Its seed is derived from the
// run's seed but is independent of the fleet's, so the same positions
// are not favoured by both.
func makeOps(seed int64, w workload, fx *fixture) []op {
	if w.Live {
		// The reader's windows depend on how far the writer has got, so
		// liveRound makes them while the round runs; nothing to freeze.
		return nil
	}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	smp := newSampler(rng, fx.cols)
	lastTick := fx.cols[len(fx.cols)-1].Tick
	one := func() op {
		if w.Op == opWindow {
			p, tick := smp.draw()
			return op{win: windowAround(rng, w, fx.gc, p, tick, lastTick)}
		}
		qs := make([]serve.STRQRequest, w.BatchSize)
		for i := range qs {
			p, tick := smp.draw()
			qs[i] = serve.STRQRequest{P: p, Tick: tick, Exact: i%4 == 0}
			if i%2 == 1 {
				qs[i].PathLen = w.PathLen
			}
		}
		return op{queries: qs}
	}
	ops := make([]op, w.ListOps)
	if w.Distinct == 0 {
		for i := range ops {
			ops[i] = one()
		}
		return ops
	}
	pool := make([]op, w.Distinct)
	for i := range pool {
		pool[i] = one()
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(w.Distinct-1))
	for i := range ops {
		ops[i] = pool[z.Uint64()]
	}
	return ops
}

// makeFixture generates the workload's inputs from the seed. The ingest
// bodies are encoded here, before anything is timed except set-up.
func makeFixture(seed int64, w workload) *fixture {
	d := makeFleet(seed, w.Fleet)
	fx := &fixture{
		data:   d,
		cols:   columnsOf(d),
		points: d.NumPoints(),
		gc:     geo.MetersToDegrees(w.CellMeters),
	}
	fx.bodies = make([][]byte, len(fx.cols))
	for i, c := range fx.cols {
		fx.bodies[i] = ingestBody(c)
	}
	fx.ops = makeOps(seed, w, fx)
	return fx
}

// digest fingerprints the generated inputs: every (tick, id, x, y) of
// the fleet and every field of the op list. The determinism test pins
// "same seed, same inputs; different seed, different inputs" on it.
func (fx *fixture) digest() (data, ops string) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range fx.cols {
		put(uint64(c.Tick))
		for i, id := range c.IDs {
			put(uint64(id))
			put(math.Float64bits(c.Points[i].X))
			put(math.Float64bits(c.Points[i].Y))
		}
	}
	data = hex.EncodeToString(h.Sum(nil))
	h.Reset()
	var b []byte
	for i := range fx.ops {
		b = fx.ops[i].body(b[:0])
		h.Write(b)
	}
	return data, hex.EncodeToString(h.Sum(nil))
}
