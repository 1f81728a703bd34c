package traj

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"ppqtraj/internal/geo"
)

func TestReadCSVBasic(t *testing.T) {
	in := `traj_id,tick,x,y
a,0,1.5,2.5
a,1,1.6,2.6
b,5,9.0,9.0
`
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	tr := d.Get(0)
	if tr.Start != 0 || tr.Len() != 2 || tr.Points[1] != geo.Pt(1.6, 2.6) {
		t.Fatalf("traj 0 = %+v", tr)
	}
	if d.Get(1).Start != 5 {
		t.Fatalf("traj 1 start = %d", d.Get(1).Start)
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	d, err := ReadCSV(strings.NewReader("7,0,1,2\n7,1,3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Get(0).Len() != 2 {
		t.Fatalf("dataset = %+v", d)
	}
}

func TestReadCSVOutOfOrderRows(t *testing.T) {
	d, err := ReadCSV(strings.NewReader("a,1,2,2\na,0,1,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Get(0).Points[0] != geo.Pt(1, 1) {
		t.Fatal("rows not sorted by tick")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		// Line 1 with a non-numeric tick is treated as a header, so the
		// bad tick sits on line 2 here.
		"bad tick":  "a,0,1,2\na,zz,1,2\n",
		"bad x":     "a,0,oops,2\n",
		"bad y":     "a,0,1,oops\n",
		"tick gap":  "a,0,1,1\na,2,2,2\n",
		"bad field": "a,0,1\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// writeCSV emits d in ReadCSV's format, header first; %v prints each
// coordinate in the shortest form that parses back to the same float64.
func writeCSV(w io.Writer, d *Dataset) {
	fmt.Fprintln(w, "traj_id,tick,x,y")
	for _, tr := range d.All() {
		for i, p := range tr.Points {
			fmt.Fprintf(w, "%d,%d,%v,%v\n", tr.ID, tr.Start+i, p.X, p.Y)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := NewDataset([]*Trajectory{
		{Start: 3, Points: []geo.Point{geo.Pt(-8.61, 41.15), geo.Pt(-8.62, 41.16)}},
		{Start: 0, Points: []geo.Point{geo.Pt(1, 2)}},
	})
	var buf bytes.Buffer
	writeCSV(&buf, d)
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.NumPoints() != d.NumPoints() {
		t.Fatalf("round trip lost data: %d/%d", got.Len(), got.NumPoints())
	}
	for i := 0; i < d.Len(); i++ {
		a, b := d.Get(ID(i)), got.Get(ID(i))
		if a.Start != b.Start || a.Len() != b.Len() {
			t.Fatalf("traj %d shape mismatch", i)
		}
		for j := range a.Points {
			if a.Points[j] != b.Points[j] {
				t.Fatalf("traj %d point %d mismatch", i, j)
			}
		}
	}
}
