package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachCtxVisitsEveryIndexOnce: every index in [0, n) runs exactly
// once, whatever the worker count and even past GOMAXPROCS.
func TestEachCtxVisitsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{1, 2, 8} {
			hits := make([]atomic.Int32, n)
			err := EachCtx(context.Background(), workers, n, func(_ context.Context, i int) {
				hits[i].Add(1)
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestEachCtxSerialRunsInOrder: with one worker the body runs inline, in
// index order.
func TestEachCtxSerialRunsInOrder(t *testing.T) {
	var got []int
	if err := EachCtx(context.Background(), 1, 9, func(_ context.Context, i int) {
		got = append(got, i)
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order %v", got)
		}
	}
	if len(got) != 9 {
		t.Fatalf("ran %d of 9", len(got))
	}
}

// TestEachCtxCancelled: an already-cancelled context runs nothing and
// returns the context's error.
func TestEachCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int32
		err := EachCtx(ctx, workers, 100, func(context.Context, int) { ran.Add(1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d bodies ran on a cancelled context", workers, ran.Load())
		}
	}
}
