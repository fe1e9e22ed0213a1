package core

// Grid-shaped inputs for the batch equivalence tests. /survey batches,
// job bands and experiment grids reach the batch kernel as column runs
// (deploy.GridPoints emits X outer, Y inner), the shape the spatial run
// walk serves; the random equivalence points never form runs.

import (
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// gridCut is the sweep engine's batch size.
const gridCut = 256

// gridSides are the dense-grid sides the batch tests cover, from runs
// below the run walk's dispatch threshold to runs longer than one cut.
var gridSides = []int{2, 7, 13, 64, 183, 301}

// gridCuts returns the k×k GridPoints lattice in emission order, cut at
// gridCut-point boundaries, followed by two seam columns (x = 0 and the
// largest float below the side, each running up to the largest float
// below the side).
func gridCuts(t *testing.T, torus geom.Torus, k int) [][]geom.Vec {
	t.Helper()
	pts, err := deploy.GridPoints(torus, k)
	if err != nil {
		t.Fatal(err)
	}
	var cuts [][]geom.Vec
	for lo := 0; lo < len(pts); lo += gridCut {
		cuts = append(cuts, pts[lo:min(lo+gridCut, len(pts))])
	}
	side := torus.Side()
	top := math.Nextafter(side, 0)
	var seam []geom.Vec
	for _, x := range []float64{0, top} {
		for j := 0; j < min(k, 100); j++ {
			seam = append(seam, geom.V(x, float64(j)*side/float64(k)))
		}
		seam = append(seam, geom.V(x, top))
	}
	return append(cuts, seam)
}

// gridEdgeNetwork is a wide-span random network plus cameras placed
// where the run walk's interval is tight for the k×k grid: on grid
// points with radii that are whole multiples of the grid step, with
// sector edges parallel to the runs, on a run's column and on the seam
// columns, and with radius ≥ side/2 or aperture ≥ π.
func gridEdgeNetwork(t *testing.T, k int, seed uint64) *sensor.Network {
	t.Helper()
	r := rng.New(seed, uint64(k))
	random, err := deploy.Uniform(geom.UnitTorus, wideSpanProfile(t), 150, r)
	if err != nil {
		t.Fatal(err)
	}
	step := 1 / float64(k)
	at := func(i, j int) geom.Vec {
		return geom.V((float64(i)+0.5)*step, (float64(j)+0.5)*step)
	}
	cams := random.Cameras()
	for q := 0; q < 24; q++ {
		half := []float64{math.Pi / 4, math.Pi / 6, math.Pi / 3}[q%3]
		orient := []float64{math.Pi/2 - half, math.Pi/2 + half, 3*math.Pi/2 - half, 3*math.Pi/2 + half}[q%4]
		cams = append(cams, sensor.Camera{
			Pos: at(r.Intn(k), r.Intn(k)), Orient: orient, Radius: float64(1+q%3) * step, Aperture: 2 * half,
		})
	}
	for _, x := range []float64{at(r.Intn(k), 0).X, 0, math.Nextafter(1, 0)} {
		cams = append(cams, sensor.Camera{
			Pos: geom.V(x, r.Float64()), Orient: r.Float64() * 2 * math.Pi, Radius: 2.5 * step, Aperture: math.Pi / 2,
		})
	}
	for q, rad := range []float64{0.5, 0.75} {
		cams = append(cams, sensor.Camera{
			Pos: at(r.Intn(k), r.Intn(k)), Orient: float64(q), Radius: rad, Aperture: []float64{math.Pi / 3, math.Pi}[q],
		})
	}
	net, err := sensor.NewNetwork(geom.UnitTorus, cams)
	if err != nil {
		t.Fatal(err)
	}
	return net
}
