package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

func TestSurveyRegionParallelMatchesSequential(t *testing.T) {
	profile, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.15, Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.5, Radius: 0.25, Aperture: math.Pi / 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 600, rng.New(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChecker(net, math.Pi/3)
	if err != nil {
		t.Fatal(err)
	}
	points, err := deploy.GridPoints(geom.UnitTorus, 25)
	if err != nil {
		t.Fatal(err)
	}
	want := c.SurveyRegion(points)
	for _, workers := range []int{0, 1, 2, 3, 4, 7, 16, runtime.GOMAXPROCS(0)} {
		got := c.SurveyRegionParallel(points, workers)
		if got != want {
			t.Errorf("workers=%d: %+v != sequential %+v", workers, got, want)
		}
		viaCtx, err := c.SurveyRegionContext(context.Background(), points, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if viaCtx != want {
			t.Errorf("workers=%d: context sweep %+v != sequential %+v", workers, viaCtx, want)
		}
	}
}

func TestSurveyRegionContextCancelled(t *testing.T) {
	c := denseRandomChecker(t, 200, math.Pi/3, 3)
	points, err := deploy.GridPoints(geom.UnitTorus, 40)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := c.SurveyRegionContext(ctx, points, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if got != (RegionStats{}) {
		t.Errorf("cancelled sweep returned stats %+v", got)
	}
}

func TestCheckerCloneIsIndependent(t *testing.T) {
	c := denseRandomChecker(t, 300, math.Pi/4, 4)
	clone := c.Clone()
	if clone == c {
		t.Fatal("Clone returned the same checker")
	}
	if clone.Index() != c.Index() {
		t.Error("Clone must share the spatial index")
	}
	if clone.Theta() != c.Theta() {
		t.Errorf("Clone theta = %v, want %v", clone.Theta(), c.Theta())
	}
	points, err := deploy.GridPoints(geom.UnitTorus, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if c.Report(p) != clone.Report(p) {
			t.Fatalf("clone disagrees with original at %v", p)
		}
	}
}

// TestCheckerClonesShareNoScratch runs two clones of one Checker at
// once through every entry point that writes checker scratch: the batch
// gather, the occupancy masks and the full-view decision's buckets.
// Under -race a shared buffer is a reported race; without it, sharing
// shows as answers that differ from the original's sequential ones.
func TestCheckerClonesShareNoScratch(t *testing.T) {
	c := denseRandomChecker(t, 300, math.Pi/4, 4)
	points, err := deploy.GridPoints(geom.UnitTorus, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := c.SurveyBatch(points)
	wantFull := make([]bool, len(points))
	for i, p := range points {
		wantFull[i] = c.FullViewCovered(p)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		clone := c.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				if got := clone.SurveyBatch(points); got != want {
					t.Errorf("clone %d round %d: SurveyBatch = %+v, want %+v", w, round, got, want)
					return
				}
				for i, p := range points {
					if clone.FullViewCovered(p) != wantFull[i] {
						t.Errorf("clone %d round %d: FullViewCovered(%v) = %v, want %v", w, round, p, !wantFull[i], wantFull[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestSurveyRegionParallelEmpty(t *testing.T) {
	c := denseRandomChecker(t, 10, math.Pi/2, 1)
	got := c.SurveyRegionParallel(nil, 4)
	if got.Points != 0 || got.MeanCovering != 0 {
		t.Errorf("empty parallel survey = %+v", got)
	}
}

func TestSurveyRegionParallelMoreWorkersThanPoints(t *testing.T) {
	c := denseRandomChecker(t, 100, math.Pi/2, 2)
	points, err := deploy.GridPoints(geom.UnitTorus, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := c.SurveyRegion(points)
	if got := c.SurveyRegionParallel(points, 64); got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func BenchmarkSurveySequential(b *testing.B) {
	profile, err := sensor.Homogeneous(0.15, math.Pi/2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 2000, rng.New(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewChecker(net, math.Pi/4)
	if err != nil {
		b.Fatal(err)
	}
	points, err := deploy.GridPoints(geom.UnitTorus, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SurveyRegion(points)
	}
}

func BenchmarkSurveyParallel(b *testing.B) {
	profile, err := sensor.Homogeneous(0.15, math.Pi/2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := deploy.Uniform(geom.UnitTorus, profile, 2000, rng.New(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewChecker(net, math.Pi/4)
	if err != nil {
		b.Fatal(err)
	}
	points, err := deploy.GridPoints(geom.UnitTorus, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SurveyRegionParallel(points, 0)
	}
}
