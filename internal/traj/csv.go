package traj

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ppqtraj/internal/geo"
)

// ReadCSV parses a trajectory dataset from CSV rows of the form
//
//	traj_id,tick,x,y
//
// (header row optional). Rows may arrive in any order; each trajectory's
// ticks must form a contiguous range. Returns the dataset with IDs
// renumbered densely in first-appearance order of traj_id.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	type sample struct {
		tick int
		p    geo.Point
	}
	byKey := map[string][]sample{}
	var order []string
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("traj: csv line %d: %w", line+1, err)
		}
		line++
		if line == 1 {
			// Tolerate a header row.
			if _, err := strconv.Atoi(rec[1]); err != nil {
				continue
			}
		}
		tick, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("traj: csv line %d: bad tick %q", line, rec[1])
		}
		x, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("traj: csv line %d: bad x %q", line, rec[2])
		}
		y, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("traj: csv line %d: bad y %q", line, rec[3])
		}
		key := rec[0]
		if _, ok := byKey[key]; !ok {
			order = append(order, key)
		}
		byKey[key] = append(byKey[key], sample{tick: tick, p: geo.Pt(x, y)})
	}
	var trajs []*Trajectory
	for _, key := range order {
		ss := byKey[key]
		sort.Slice(ss, func(i, j int) bool { return ss[i].tick < ss[j].tick })
		pts := make([]geo.Point, len(ss))
		for i, s := range ss {
			if i > 0 && s.tick != ss[i-1].tick+1 {
				return nil, fmt.Errorf("traj: trajectory %q has a tick gap %d→%d",
					key, ss[i-1].tick, s.tick)
			}
			pts[i] = s.p
		}
		trajs = append(trajs, &Trajectory{Start: ss[0].tick, Points: pts})
	}
	return NewDataset(trajs), nil
}
