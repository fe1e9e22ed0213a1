package spatial

import (
	"math"
	"testing"

	"fullview/internal/deploy"
	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// FuzzGridGather checks the batch gather against the point path on grid
// input, element for element: the k×k GridPoints lattice cut at 256
// points, plus one column run at a fuzzed X offset, through 1–8 fuzzed
// cameras. The decoder biases cameras toward the places where the run
// walk's interval is tight: on grid points, on the fuzzed column
// (du = 0), on the torus seam, with a sector edge parallel to the runs,
// and with a sector edge aimed at a grid point to within the 1e-9 guard
// band.
//
// Run with: go test -run=NONE -fuzz=FuzzGridGather ./internal/spatial/
func FuzzGridGather(f *testing.F) {
	// mode, position bytes, radius, aperture, orientation mode, target,
	// jitter — eight bytes per camera.
	f.Add(uint8(12), 0.25, []byte{0, 3, 4, 7, 0, 0, 1, 0})
	f.Add(uint8(63), 0.0, []byte{1, 0, 9, 20, 1, 1, 17, 200, 2, 1, 5, 3, 2, 2, 0, 0})
	f.Add(uint8(40), math.Nextafter(1, 0), []byte{2, 1, 30, 250, 2, 3, 0, 0, 3, 77, 120, 40, 4, 3, 90, 0})
	f.Add(uint8(5), 1e-17, []byte{0, 1, 1, 4, 6, 1, 3, 127, 1, 0, 2, 243, 5, 0, 0, 0, 0, 4, 4, 12, 0, 1, 9, 128})
	f.Fuzz(func(t *testing.T, kb uint8, col float64, spec []byte) {
		torus := geom.UnitTorus
		k := 1 + int(kb)%64
		step := 1 / float64(k)
		colX := fuzzColumn(col, spec)
		cams := fuzzCameras(spec, k, step, colX)
		net, err := sensor.NewNetwork(torus, cams)
		if err != nil {
			t.Skip(err)
		}
		ix := NewIndex(net)

		pts, err := deploy.GridPoints(torus, k)
		if err != nil {
			t.Fatal(err)
		}
		column := make([]geom.Vec, 0, k+1)
		for j := 0; j < k; j++ {
			column = append(column, geom.V(colX, (float64(j)+0.5)*step))
		}
		column = append(column, geom.V(colX, math.Nextafter(1, 0)))
		var sc BatchScratch
		for lo := 0; lo < len(pts); lo += gridCut {
			cut := pts[lo:min(lo+gridCut, len(pts))]
			assertBatchMatchesPoints(t, "grid cut", ix, &sc, cut)
			if len(cut) < gridCut {
				assertBatchMatchesPoints(t, "padded grid cut", ix, &sc, padRuns(torus, cut))
			}
		}
		assertBatchMatchesPoints(t, "column", ix, &sc, padRuns(torus, column))
	})
}

// fuzzColumn maps the fuzzed offset into [0, 1), biased toward the seam.
func fuzzColumn(col float64, spec []byte) float64 {
	if len(spec) > 0 {
		switch spec[0] % 8 {
		case 6:
			return 0
		case 7:
			return math.Nextafter(1, 0)
		}
	}
	if math.IsNaN(col) || math.IsInf(col, 0) {
		return 0
	}
	return geom.UnitTorus.Wrap(geom.V(col, 0)).X
}

// fuzzCameras decodes 1–8 cameras from spec, eight bytes each (missing
// bytes read as zero).
func fuzzCameras(spec []byte, k int, step, colX float64) []sensor.Camera {
	at := func(i int) byte {
		if i < len(spec) {
			return spec[i]
		}
		return 0
	}
	grid := func(i, j int) geom.Vec {
		return geom.V((float64(i%k)+0.5)*step, (float64(j%k)+0.5)*step)
	}
	top := math.Nextafter(1, 0)
	n := 1 + min(len(spec)/8, 7)
	cams := make([]sensor.Camera, n)
	for q := range cams {
		b := func(i int) int { return int(at(8*q + i)) }
		var pos geom.Vec
		switch b(0) % 4 {
		case 0: // on a grid point
			pos = grid(b(1), b(2))
		case 1: // on the fuzzed column, on or between grid rows
			pos = geom.V(colX, grid(0, b(2)).Y)
			if b(1)%2 == 1 {
				pos.Y = float64(b(2)) / 256
			}
		case 2: // on or next to the seam
			pos = geom.V([]float64{0, top, 1e-17, 1 - 1e-16}[b(1)%4], grid(0, b(2)).Y)
		default:
			pos = geom.V(float64(b(1))/256+float64(b(2))/65536, float64(b(2))/256)
		}
		radius := float64(1+b(3)%48) * step / 4
		if b(3) >= 240 {
			radius = []float64{0.5, 0.75, 1.5, 0.5 - 1e-12}[b(3)%4]
		}
		aperture := []float64{
			math.Pi / 2, math.Pi / 3, math.Pi, 2 * math.Pi,
			math.Nextafter(math.Pi, 0), 1.5 * math.Pi, 0.01, 2 * math.Atan2(1, 2),
		}[b(4)%8]
		if b(4) >= 128 {
			aperture = float64(b(4)-127) / 128 * 2 * math.Pi
		}
		half := aperture / 2
		var orient float64
		switch b(5) % 4 {
		case 0: // one sector edge parallel to the runs
			orient = []float64{math.Pi/2 - half, math.Pi/2 + half, 3*math.Pi/2 - half, 3*math.Pi/2 + half}[b(6)%4]
		case 1: // one sector edge on a grid point, jittered inside the guard band
			target := grid(b(6), b(6)/k+b(7))
			d := geom.UnitTorus.Delta(pos, target)
			jitter := float64(int8(b(7))) * 1e-11
			if b(6)%2 == 0 {
				orient = d.Angle() - half + jitter
			} else {
				orient = d.Angle() + half + jitter
			}
		case 2:
			orient = float64(b(6)%8) * math.Pi / 4
		default:
			orient = float64(b(6)) / 256 * 2 * math.Pi
		}
		cams[q] = sensor.Camera{Pos: pos, Orient: orient, Radius: radius, Aperture: aperture}
	}
	return cams
}
