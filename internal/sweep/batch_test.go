package sweep

// Tests for the batch execution path: RunBatch must partition every
// point into contiguous BatchSize sub-slices with correct global
// offsets, reproduce Run's results at any worker count, honour
// cancellation between sub-slices, and contain kernel panics with the
// batch's first index as the PanicError item.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"fullview/internal/geom"
)

// TestRunBatchCoversEveryPointOnce checks partitioning: each point is
// visited exactly once, in order, with lo equal to the global index of
// the sub-slice's first point and every sub-slice at most BatchSize
// long.
func TestRunBatchCoversEveryPointOnce(t *testing.T) {
	for _, n := range []int{1, BatchSize - 1, BatchSize, BatchSize + 1, 3*BatchSize + 17, 1003} {
		points := testPoints(n)
		for _, workers := range []int{1, 2, 3, 7} {
			kernel := func(_ struct{}, acc []int, lo int, pts []geom.Vec) []int {
				if len(pts) == 0 || len(pts) > BatchSize {
					t.Errorf("n=%d workers=%d: sub-slice of %d points", n, workers, len(pts))
				}
				for i, p := range pts {
					if p != points[lo+i] {
						t.Errorf("n=%d workers=%d: pts[%d] is not points[%d]", n, workers, i, lo+i)
					}
					acc = append(acc, lo+i)
				}
				return acc
			}
			merge := func(dst, src []int) []int { return append(dst, src...) }
			got, err := RunBatch(context.Background(), points, workers, noState, kernel, merge)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: visited %d points, want %d", n, workers, len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("n=%d workers=%d: index %d visited at position %d", n, workers, v, i)
				}
			}
		}
	}
}

// TestRunBatchMatchesRun pins RunBatch to Run on the same fold: a
// batch kernel that loops its sub-slice must give the same result as
// the per-point kernel at every worker count.
func TestRunBatchMatchesRun(t *testing.T) {
	points := testPoints(4*BatchSize + 39)
	pointKernel := func(_ struct{}, acc float64, i int, p geom.Vec) float64 {
		return acc + p.X*float64(i+1)
	}
	batchKernel := func(_ struct{}, acc float64, lo int, pts []geom.Vec) float64 {
		for i, p := range pts {
			acc = pointKernel(struct{}{}, acc, lo+i, p)
		}
		return acc
	}
	merge := func(dst, src float64) float64 { return dst + src }
	want, err := Run(context.Background(), points, 1, noState, pointKernel, merge)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := RunBatch(context.Background(), points, workers, noState, batchKernel, merge)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: RunBatch = %v, Run = %v", workers, got, want)
		}
	}
}

// TestRunBatchEmptyAndPreCancelled pins the trivial paths.
func TestRunBatchEmptyAndPreCancelled(t *testing.T) {
	kernel := func(_ struct{}, acc int, _ int, pts []geom.Vec) int { return acc + len(pts) }
	merge := func(dst, src int) int { return dst + src }
	got, err := RunBatch(context.Background(), nil, 4, noState, kernel, merge)
	if err != nil || got != 0 {
		t.Fatalf("empty: got (%d, %v), want (0, nil)", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBatch(ctx, testPoints(10), 2, noState, kernel, merge); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
}

// TestRunBatchCancellationBetweenBatches checks that a cancellation
// fired from inside a kernel stops the sweep at a batch boundary.
func TestRunBatchCancellationBetweenBatches(t *testing.T) {
	points := testPoints(10 * BatchSize)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	kernel := func(_ struct{}, acc int, _ int, pts []geom.Vec) int {
		calls++
		if calls == 2 {
			cancel()
		}
		return acc + len(pts)
	}
	merge := func(dst, src int) int { return dst + src }
	_, err := RunBatch(ctx, points, 1, noState, kernel, merge)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls >= 10 {
		t.Fatalf("kernel ran %d batches after cancellation, want an early stop", calls)
	}
}

// TestRunBatchStateFactoryError propagates factory failures like Run.
func TestRunBatchStateFactoryError(t *testing.T) {
	boom := errors.New("no state for you")
	factory := func() (struct{}, error) { return struct{}{}, boom }
	kernel := func(_ struct{}, acc int, _ int, pts []geom.Vec) int { return acc + len(pts) }
	merge := func(dst, src int) int { return dst + src }
	if _, err := RunBatch(context.Background(), testPoints(50), 2, factory, kernel, merge); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the factory error", err)
	}
}

// TestRunBatchPanicIsolated checks panic containment: the PanicError
// reports the batch's first global index, and peer workers are not torn
// down mid-write.
func TestRunBatchPanicIsolated(t *testing.T) {
	points := testPoints(3*BatchSize + 5)
	kernel := func(_ struct{}, acc int, lo int, pts []geom.Vec) int {
		if lo == BatchSize { // second batch of the single chunk
			panic("kernel exploded")
		}
		return acc + len(pts)
	}
	merge := func(dst, src int) int { return dst + src }
	_, err := RunBatch(context.Background(), points, 1, noState, kernel, merge)
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if perr.Item != BatchSize {
		t.Fatalf("PanicError.Item = %d, want the batch start %d", perr.Item, BatchSize)
	}
}

// TestRunBatchNeverSplitsBelowABatch pins the dispatch rule: RunBatch
// builds exactly min(workers, ceil(n/BatchSize)) worker states, so a
// sweep of at most one batch runs on a single worker while a dense grid
// still fans out, and the fold stays bit-identical to the sequential
// sweep. Run keeps its own rule, min(workers, items).
func TestRunBatchNeverSplitsBelowABatch(t *testing.T) {
	pointKernel := func(_ struct{}, acc float64, i int, p geom.Vec) float64 {
		return acc + p.X*float64(i+1)
	}
	batchKernel := func(_ struct{}, acc float64, lo int, pts []geom.Vec) float64 {
		for i, p := range pts {
			acc = pointKernel(struct{}{}, acc, lo+i, p)
		}
		return acc
	}
	merge := func(dst, src float64) float64 { return dst + src }
	for _, n := range []int{1, 183, 256, 257, 33489} {
		points := testPoints(n)
		want, err := Run(context.Background(), points, 1, noState, pointKernel, merge)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			var states atomic.Int64
			counted := func() (struct{}, error) {
				states.Add(1)
				return struct{}{}, nil
			}
			got, err := RunBatch(context.Background(), points, workers, counted, batchKernel, merge)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if wantStates := min(workers, (n+BatchSize-1)/BatchSize); states.Load() != int64(wantStates) {
				t.Errorf("n=%d workers=%d: RunBatch built %d worker states, want %d", n, workers, states.Load(), wantStates)
			}
			if got != want {
				t.Errorf("n=%d workers=%d: RunBatch = %v, sequential = %v", n, workers, got, want)
			}

			states.Store(0)
			if _, err := Run(context.Background(), points, workers, counted, pointKernel, merge); err != nil {
				t.Fatal(err)
			}
			if wantStates := min(workers, n); states.Load() != int64(wantStates) {
				t.Errorf("n=%d workers=%d: Run built %d worker states, want %d", n, workers, states.Load(), wantStates)
			}
		}
	}
}
