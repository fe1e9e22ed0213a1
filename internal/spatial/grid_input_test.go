package spatial

// Grid-shaped inputs for the batch equivalence tests. Survey grids reach
// the batch gather as column runs (deploy.GridPoints emits X outer, Y
// inner), which is the shape the run walk serves; random point batches
// never form runs and so never reach it. These helpers build the grid
// cuts, the seam columns, and the camera placements whose chord ends and
// sector edges land exactly on grid points, where a run-walk interval
// without slack would drop a covering camera.

import (
	"fmt"
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/rng"
	"fullview/internal/sensor"
)

// gridCut is the sweep engine's batch size: surveys and job bands reach
// the gather in 256-point cuts of the grid.
const gridCut = 256

// gridSides are the dense-grid sides the equivalence tests cover: runs
// shorter than minMeanRun (cell-group walk), runs just above it, runs
// spanning several cell rows, and runs longer than one cut.
var gridSides = []int{2, 7, 13, 64, 183, 301}

// gridCuts returns the k×k GridPoints lattice, in emission order, cut at
// gridCut-point boundaries.
func gridCuts(t testing.TB, torus geom.Torus, k int) [][]geom.Vec {
	t.Helper()
	pts, err := deploy.GridPoints(torus, k)
	if err != nil {
		t.Fatal(err)
	}
	var cuts [][]geom.Vec
	for lo := 0; lo < len(pts); lo += gridCut {
		cuts = append(cuts, pts[lo:min(lo+gridCut, len(pts))])
	}
	return cuts
}

// seamColumns returns two column runs on the torus seam, at x = 0 and at
// the largest float below the side. Each runs through k evenly spaced
// rows from y = 0 and ends at the largest float below the side.
func seamColumns(torus geom.Torus, k int) []geom.Vec {
	side := torus.Side()
	top := math.Nextafter(side, 0)
	var pts []geom.Vec
	for _, x := range []float64{0, top} {
		for j := 0; j < k; j++ {
			pts = append(pts, geom.V(x, float64(j)*side/float64(k)))
		}
		pts = append(pts, geom.V(x, top))
	}
	return pts
}

// padRuns returns pts followed by a 64-point column run at x = side/3,
// so a batch of short runs (a tiny grid, a seam column) still has a
// mean run length that dispatches it to the run walk.
func padRuns(torus geom.Torus, pts []geom.Vec) []geom.Vec {
	out := append([]geom.Vec(nil), pts...)
	side := torus.Side()
	for j := 0; j < 64; j++ {
		out = append(out, geom.V(side/3, (float64(j)+0.25)*side/64))
	}
	return out
}

// gridEdgeCameras places cameras where the run walk's interval bounds
// are tight, for the k×k grid on torus:
//   - on grid points, with radii that are whole multiples of the grid
//     step, so chord ends fall exactly on grid points;
//   - with sector edges through grid points, including edges parallel
//     to the runs (an edge at π/2 or 3π/2);
//   - on a run's column between grid rows (du = 0) and on the seam
//     columns;
//   - with radius ≥ side/2 and aperture ≥ π.
func gridEdgeCameras(torus geom.Torus, k int, r *rng.PCG) []sensor.Camera {
	side := torus.Side()
	step := side / float64(k)
	at := func(i, j int) geom.Vec {
		return geom.V((float64(i)+0.5)*step, (float64(j)+0.5)*step)
	}
	orients := []float64{
		0, math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4, math.Pi,
		5 * math.Pi / 4, 3 * math.Pi / 2, 7 * math.Pi / 4, math.Atan2(1, 2),
	}
	apertures := []float64{
		math.Pi / 2, math.Pi / 3, math.Nextafter(math.Pi, 0), math.Pi,
		1.5 * math.Pi, 2 * math.Pi, 2 * math.Atan2(1, 2),
	}
	var cams []sensor.Camera
	for q := 0; q < 36; q++ {
		cams = append(cams, sensor.Camera{
			Pos:      at(r.Intn(k), r.Intn(k)),
			Orient:   orients[q%len(orients)],
			Radius:   float64(1+q%3) * step,
			Aperture: apertures[q%len(apertures)],
		})
	}
	// Sector edges exactly parallel to the runs: orientation π/2 ∓ φ/2.
	for _, half := range []float64{math.Pi / 4, math.Pi / 6, math.Pi / 3} {
		for _, o := range []float64{math.Pi/2 - half, math.Pi/2 + half, 3*math.Pi/2 - half, 3*math.Pi/2 + half} {
			cams = append(cams, sensor.Camera{
				Pos: at(r.Intn(k), r.Intn(k)), Orient: o, Radius: 2 * step, Aperture: 2 * half,
			})
		}
	}
	// On a run's column, between grid rows, and on the seam columns.
	top := math.Nextafter(side, 0)
	for _, x := range []float64{at(r.Intn(k), 0).X, 0, top} {
		for q := 0; q < 4; q++ {
			cams = append(cams, sensor.Camera{
				Pos:      geom.V(x, r.Float64()*side),
				Orient:   orients[r.Intn(len(orients))],
				Radius:   (0.5 + 2*r.Float64()) * step,
				Aperture: apertures[r.Intn(len(apertures))],
			})
		}
	}
	// Radius ≥ side/2 (whole-tier scans) with apertures below and above π.
	for q, rad := range []float64{side / 2, 0.75 * side, 1.5 * side} {
		cams = append(cams, sensor.Camera{
			Pos: at(r.Intn(k), r.Intn(k)), Orient: orients[q], Radius: rad, Aperture: apertures[q],
		})
	}
	return cams
}

// gridEdgeNetwork mixes gridEdgeCameras with the wide-span random
// fixture's cameras, so the tight cameras share tiers with ordinary ones.
func gridEdgeNetwork(t testing.TB, torus geom.Torus, k int, seed uint64) *sensor.Network {
	t.Helper()
	r := rng.New(seed, uint64(k))
	cams := gridEdgeCameras(torus, k, r)
	p, err := sensor.NewProfile(
		sensor.GroupSpec{Fraction: 0.4, Radius: 0.002 * torus.Side(), Aperture: math.Pi / 2},
		sensor.GroupSpec{Fraction: 0.3, Radius: 0.02 * torus.Side(), Aperture: math.Pi / 3},
		sensor.GroupSpec{Fraction: 0.3, Radius: 0.2 * torus.Side(), Aperture: math.Pi / 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	random, err := deploy.Uniform(torus, p, 120, r)
	if err != nil {
		t.Fatal(err)
	}
	net, err := sensor.NewNetwork(torus, append(cams, random.Cameras()...))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// assertGridMatchesPoints runs every grid-shaped input for side k —
// the cuts, the seam columns, and both padded to force the run walk —
// through assertBatchMatchesPoints.
func assertGridMatchesPoints(t *testing.T, tag string, src Source, sc *BatchScratch, torus geom.Torus, k int) {
	t.Helper()
	for i, cut := range gridCuts(t, torus, k) {
		assertBatchMatchesPoints(t, fmt.Sprintf("%s k=%d cut %d", tag, k, i), src, sc, cut)
		if k*k <= gridCut {
			assertBatchMatchesPoints(t, fmt.Sprintf("%s k=%d padded", tag, k), src, sc, padRuns(torus, cut))
			if !sc.findRuns(len(sc.wx)) {
				t.Fatalf("%s k=%d: padded grid did not dispatch to the run walk", tag, k)
			}
		}
	}
	seam := seamColumns(torus, min(k, 100))
	assertBatchMatchesPoints(t, fmt.Sprintf("%s k=%d seam", tag, k), src, sc, seam)
	assertBatchMatchesPoints(t, fmt.Sprintf("%s k=%d seam padded", tag, k), src, sc, padRuns(torus, seam))
}
