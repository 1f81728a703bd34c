package core

import (
	"bytes"
	"runtime"
	"testing"

	"ppqtraj/internal/gen"
	"ppqtraj/internal/partition"
	"ppqtraj/internal/traj"
)

// detOpts is a build configuration exercising every Append phase:
// feature extraction (Autocorr), per-partition fitting, and CQC coding.
func detOpts(mode partition.Mode) Options {
	epsP := 0.1
	if mode == partition.Autocorr {
		epsP = 0.2
	}
	o := DefaultOptions(mode, epsP)
	o.Seed = 42
	return o
}

func serializedBuild(t *testing.T, d *traj.Dataset, o Options) []byte {
	t.Helper()
	s := Build(d, o)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// TestBuildBitIdenticalAcrossGOMAXPROCS is the determinism regression
// test of the build: with Seed set, a build must serialize to
// byte-identical summaries whatever GOMAXPROCS is, so nothing in a build
// may depend on the scheduler.
func TestBuildBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	d := gen.Porto(gen.Config{NumTrajectories: 60, MinLen: 40, MaxLen: 80, Seed: 9})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, mode := range []partition.Mode{partition.Spatial, partition.Autocorr} {
		o := detOpts(mode)
		var want []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := serializedBuild(t, d, o)
			if want == nil {
				want = got
				roundTrip(t, Build(d, o))
				continue
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("mode %v: summary bytes differ between GOMAXPROCS=1 and GOMAXPROCS=%d (len %d vs %d)",
					mode, procs, len(want), len(got))
			}
		}
	}
}
