package geom

import (
	"math"
	"slices"
	"testing"
)

func FuzzNormalizeAngle(f *testing.F) {
	f.Add(0.0)
	f.Add(math.Pi)
	f.Add(-math.Pi / 2)
	f.Add(1e9)
	f.Add(-1e12)
	f.Add(TwoPi)
	f.Fuzz(func(t *testing.T, a float64) {
		got := NormalizeAngle(a)
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return
		}
		if got < 0 || got >= TwoPi {
			t.Fatalf("NormalizeAngle(%v) = %v out of [0, 2π)", a, got)
		}
		// Idempotence.
		if again := NormalizeAngle(got); again != got {
			t.Fatalf("not idempotent: %v → %v → %v", a, got, again)
		}
	})
}

func FuzzAngularDistance(f *testing.F) {
	f.Add(0.0, math.Pi)
	f.Add(1.0, 1.0)
	f.Add(-3.0, 7.0)
	f.Fuzz(func(t *testing.T, a, b float64) {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e12 || math.Abs(b) > 1e12 {
			return
		}
		d := AngularDistance(a, b)
		if d < 0 || d > math.Pi+1e-9 {
			t.Fatalf("AngularDistance(%v, %v) = %v out of [0, π]", a, b, d)
		}
		if sym := AngularDistance(b, a); math.Abs(d-sym) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", d, sym)
		}
	})
}

func FuzzSectorContains(f *testing.F) {
	f.Add(0.0, 1.0, 0.5)
	f.Add(5.5, 2.0, 0.1)
	f.Add(0.0, TwoPi, 3.0)
	f.Fuzz(func(t *testing.T, start, width, angle float64) {
		if math.IsNaN(start) || math.IsNaN(angle) || math.Abs(start) > 1e9 || math.Abs(angle) > 1e9 {
			return
		}
		width = math.Mod(math.Abs(width), TwoPi-0.02) + 0.01
		s, err := NewSector(start, width)
		if err != nil {
			t.Fatalf("NewSector(%v, %v): %v", start, width, err)
		}
		// Definition consistency.
		want := CCWDelta(angle, s.Start) <= s.Width
		if got := s.Contains(angle); got != want {
			t.Fatalf("Contains(%v) = %v, definition says %v", angle, got, want)
		}
		// The bisector is always inside; the antipode of the bisector is
		// outside for widths below 2π.
		if !s.Contains(s.Bisector()) {
			t.Fatal("sector does not contain its bisector")
		}
		if s.Width < math.Pi && s.Contains(s.Bisector()+math.Pi) {
			t.Fatal("narrow sector contains the opposite of its bisector")
		}
	})
}

func FuzzMinArcCoverageDepth(f *testing.F) {
	f.Add(0.5, 1.0, 2.0, 3.0, 0.7)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.1)
	f.Fuzz(func(t *testing.T, a, b, c, d, half float64) {
		for _, v := range []float64{a, b, c, d, half} {
			if math.IsNaN(v) || math.Abs(v) > 1e9 {
				return
			}
		}
		half = math.Mod(math.Abs(half), math.Pi)
		centers := []float64{a, b, c, d}
		depth, witness := MinArcCoverageDepth(centers, half)
		if depth < 0 || depth > len(centers) {
			t.Fatalf("depth %d out of range", depth)
		}
		// The witness must attain the reported depth, allowing a
		// tolerance band for arcs whose boundary lands within rounding
		// distance of the witness (normalizing large center values
		// perturbs arc endpoints by a few ulps).
		const tol = 1e-9
		countLo, countHi := 0, 0
		for _, ctr := range centers {
			dist := AngularDistance(witness, ctr)
			if half >= math.Pi || dist <= half-tol {
				countLo++
			}
			if half >= math.Pi || dist <= half+tol {
				countHi++
			}
		}
		if depth < countLo || depth > countHi {
			t.Fatalf("witness %v depth %d outside [%d, %d] (half=%v centers=%v)",
				witness, depth, countLo, countHi, half, centers)
		}
		// Consistency with the gap test, away from the boundary.
		gap, _ := MaxCircularGap(centers)
		if math.Abs(gap-2*half) > tol && (depth >= 1) != (gap <= 2*half) {
			t.Fatalf("depth %d vs gap %v inconsistent at half=%v", depth, gap, half)
		}
	})
}

// FuzzGapAtMost pins the sort-free full-view decision to the sorted
// scan it replaces, compared with ==: MaxGapAtMost(dirs, limit) must
// equal len(dirs) > 0 && MaxCircularGapInPlace(dirs) ≤ limit for every
// finite direction set and every limit. shape's low nibble picks the
// direction set, biased toward the inputs where the two could part:
// single directions, pairs and chains exactly limit apart, the seam
// (0, −0, ±π, the largest float below 2π), duplicates, and directions
// far outside [0, 2π). Its high bits pick θ = limit/2: as given, π/k
// (π/θ integral, where the remainder sector degenerates) nudged by an
// ulp, either side of the bucket-count cap at π/32, or π itself.
func FuzzGapAtMost(f *testing.F) {
	f.Add(uint8(0x00), 1.0, 2.0, 3.0, 4.0, math.Pi/4)
	f.Add(uint8(0x01), -math.Pi, math.Pi, 0.0, 0.0, math.Pi/2)
	f.Add(uint8(0x13), 0.3, 0.0, 0.0, 0.0, 7.0)
	f.Add(uint8(0x14), -0.1, 0.0, 0.0, 0.0, 5.0)
	f.Add(uint8(0x24), 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(0x64), 1e-3, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(0x35), 2.5, 31.0, 0.0, 0.0, 0.0)
	f.Add(uint8(0x06), 1.0, -5.0, 0.0, 0.0, 0.3)
	f.Add(uint8(0x02), TwoPi, -TwoPi, 1e9, -7*TwoPi, 0.5)
	f.Add(uint8(0x08), 0.7, 0.0, 0.0, 0.0, math.Pi/3)
	f.Add(uint8(0x07), 0.0, 1.0, 0.25, 0.0, math.Pi/6)
	f.Fuzz(func(t *testing.T, shape uint8, a, b, c, d, theta float64) {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		switch shape >> 5 {
		case 1: // π/θ integral, nudged by an ulp either way
			theta = math.Pi / float64(1+int(math.Abs(math.Mod(theta, 64))))
			if shape&0x10 != 0 {
				theta = math.Nextafter(theta, math.Inf(1))
			} else if math.Signbit(a) {
				theta = math.Nextafter(theta, 0)
			}
		case 2: // the bucket-count cap
			theta = math.Pi / 32
			if shape&0x10 != 0 {
				theta = math.Nextafter(theta, math.Inf(1))
			} else if math.Signbit(a) {
				theta = math.Nextafter(theta, 0)
			}
		case 3:
			theta = math.Pi
		}
		limit := 2 * theta
		dirs := gapFuzzDirs(shape&0x0f, a, b, c, d, limit)

		ref := slices.Clone(dirs)
		gap, _ := MaxCircularGapInPlace(ref)
		want := len(dirs) > 0 && gap <= limit
		var s GapScratch
		for i := range s.lo {
			s.lo[i], s.hi[i] = -1, 7 // stale contents must not matter
		}
		if got := MaxGapAtMost(slices.Clone(dirs), limit, &s); got != want {
			t.Fatalf("MaxGapAtMost(%v, %v) = %v, sorted scan says gap %v → %v", dirs, limit, got, gap, want)
		}
	})
}

// gapFuzzDirs builds FuzzGapAtMost's direction set for one shape.
func gapFuzzDirs(shape uint8, a, b, c, d, limit float64) []float64 {
	seam := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, math.Nextafter(TwoPi, 0)}
	switch shape {
	case 0:
		return []float64{a}
	case 1:
		return []float64{a, b}
	case 2:
		return []float64{a, b, c, d}
	case 3: // a pair exactly limit apart
		return []float64{a, a + limit}
	case 4, 5: // a chain of limit-wide steps round the circle
		step := limit
		if shape == 5 {
			step = math.Nextafter(limit, math.Inf(1))
		}
		var dirs []float64
		for x := a; x < a+TwoPi && len(dirs) < 256; x += step {
			dirs = append(dirs, x)
		}
		if len(dirs) == 0 || math.Abs(b) < 1 {
			return dirs
		}
		return dirs[1:] // drop one link: one gap of twice the step
	case 6: // duplicates
		return []float64{a, a, b, b}
	case 7: // the seam, a subset picked by b's bits
		dirs := []float64{a}
		bits := math.Float64bits(b)
		for i, v := range seam {
			if bits>>i&1 != 0 {
				dirs = append(dirs, v)
			}
		}
		return dirs
	case 8: // the seam chained limit apart both ways
		var dirs []float64
		for _, v := range seam {
			dirs = append(dirs, v, v+limit, v-limit)
		}
		return dirs
	default: // many directions from a small generator seeded by the inputs
		n := 2 + int(math.Float64bits(d)%96)
		x := math.Float64bits(a) ^ math.Float64bits(b)<<1 ^ math.Float64bits(c)<<2
		dirs := make([]float64, n)
		for i := range dirs {
			x = x*6364136223846793005 + 1442695040888963407
			dirs[i] = (float64(x>>11)/(1<<53) - 0.5) * TwoPi
			if shape&1 != 0 && i > 0 && x>>60 == 0 {
				dirs[i] = dirs[i-1] // a duplicate now and then
			}
		}
		return dirs
	}
}
