package geom

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// MaxCircularGap returns the widest angular gap between consecutive
// directions when the given angles are placed on the circle, together
// with the bisector direction of that gap.
//
// This is the primitive behind the exact full-view coverage test: a point
// whose covering sensors sit at viewed directions angles is full-view
// covered with effective angle θ iff MaxCircularGap(angles) ≤ 2θ — the
// bisector of a wider gap is an unsafe facing direction (paper, Section
// III-A).
//
// For an empty input the gap is the whole circle (2π) with bisector 0.
// For a single direction a the gap is 2π with bisector opposite a.
// The input slice is not modified. A caller that needs only the verdict
// gap ≤ 2θ should use MaxGapAtMost, which decides it without sorting.
func MaxCircularGap(angles []float64) (gap, bisector float64) {
	switch len(angles) {
	case 0:
		return TwoPi, 0
	case 1:
		return TwoPi, NormalizeAngle(angles[0] + TwoPi/2)
	}
	sorted := make([]float64, len(angles))
	for i, a := range angles {
		sorted[i] = NormalizeAngle(a)
	}
	sort.Float64s(sorted)
	return gapScanSorted(sorted)
}

// MaxCircularGapInPlace is MaxCircularGap without the defensive copy: it
// normalizes and sorts angles in place and allocates nothing, making it
// the right primitive for per-point hot loops that own a reusable
// direction buffer. Results are bit-identical to MaxCircularGap for
// finite inputs; angles must not contain NaN or ±Inf (unlike
// MaxCircularGap, whose sort tolerates them). Callers that only compare
// the gap against a limit should use MaxGapAtMost, which skips the sort.
func MaxCircularGapInPlace(angles []float64) (gap, bisector float64) {
	switch len(angles) {
	case 0:
		return TwoPi, 0
	case 1:
		return TwoPi, NormalizeAngle(angles[0] + TwoPi/2)
	}
	normalizeDirs(angles)
	slices.Sort(angles)
	return gapScanSorted(angles)
}

// normalizeDirs normalizes directions in place to [0, 2π). It is the
// one normalization of the in-place gap primitives, so MaxGapAtMost
// buckets exactly the values MaxCircularGapInPlace sorts. On (−2π, 2π)
// math.Mod is the identity, so adding 2π to negative directions matches
// NormalizeAngle bit for bit, except that −0 becomes +0 (no gap differs
// by the sign of a zero). The add is keyed on the sign bit rather than
// a branch: atan2 outputs are negative about half the time, and the
// mispredicted branch cost about a quarter of MaxGapAtMost's time on
// random directions.
func normalizeDirs(angles []float64) {
	for i, a := range angles {
		if !(a > -TwoPi && a < TwoPi) {
			angles[i] = NormalizeAngle(a)
			continue
		}
		a += TwoPi * float64(math.Float64bits(a)>>63)
		if a >= TwoPi { // −ε + 2π can round up to exactly 2π
			a -= TwoPi
		}
		angles[i] = a
	}
}

// gapBuckets caps the lattice of MaxGapAtMost at one occupancy word:
// 4π/limit < 64 buckets, i.e. limits above π/16 (θ = limit/2 above
// π/32). Smaller limits fall back to the sort.
const gapBuckets = 64

// GapScratch is MaxGapAtMost's per-bucket extreme storage. Its contents
// never carry over between calls; a caller owns one per goroutine.
type GapScratch struct {
	lo, hi [gapBuckets]float64
}

// MaxGapAtMost reports len(angles) > 0 && gap ≤ limit, where gap is
// MaxCircularGapInPlace(angles)'s widest gap, bit for bit, without
// sorting.
//
// The directions are bucketed on a lattice of width w = limit/2 by
// j = ⌊a·(1/w)⌋ and each bucket keeps its smallest and largest member.
// j is monotone in a, so consecutive non-empty buckets meet at a pair
// of sorted neighbours, and their gap lo[j] − hi[prev] — like the wrap
// gap lo[first] + 2π − hi[last] — is the very subtraction the sorted
// scan performs. Two directions in one bucket differ by at most
// w·(1 + O(64ε)) < limit, so no gap inside a bucket can decide the
// answer. A single direction answers 2π ≤ limit, as the scan does.
//
// Like MaxCircularGapInPlace, it normalizes angles in place and they
// must not contain NaN or ±Inf. Limits too small for gapBuckets buckets
// (and non-positive or NaN limits) take MaxCircularGapInPlace itself,
// which also reorders them.
func MaxGapAtMost(angles []float64, limit float64, s *GapScratch) bool {
	switch len(angles) {
	case 0:
		return false
	case 1:
		return TwoPi <= limit
	}
	inv := 2 / limit
	if !(limit > 0) || !(TwoPi*inv < gapBuckets) {
		gap, _ := MaxCircularGapInPlace(angles)
		return gap <= limit
	}
	// a ∈ [0, 2π) (or −0) gives a·inv ≤ 2π·inv < gapBuckets, so every
	// index fits one occupancy word. Clearing the lattice's buckets up
	// front keeps the loop free of data-dependent branches.
	nb := int(TwoPi*inv) + 1
	lo, hi := s.lo[:nb], s.hi[:nb]
	for j := range lo {
		lo[j] = math.Inf(1)
	}
	for j := range hi {
		hi[j] = math.Inf(-1)
	}
	var occ uint64
	normalizeDirs(angles)
	for _, a := range angles {
		j := int(a*inv) & (gapBuckets - 1)
		occ |= 1 << j
		s.lo[j] = min(s.lo[j], a)
		s.hi[j] = max(s.hi[j], a)
	}
	first := bits.TrailingZeros64(occ)
	prevHi := s.hi[first]
	for rest := occ & (occ - 1); rest != 0; rest &= rest - 1 {
		j := bits.TrailingZeros64(rest)
		if s.lo[j]-prevHi > limit {
			return false
		}
		prevHi = s.hi[j]
	}
	return s.lo[first]+TwoPi-prevHi <= limit
}

// gapScanSorted finds the widest gap of at least two normalized, sorted
// angles, starting from the wrap-around gap (last angle back to the
// first).
func gapScanSorted(sorted []float64) (gap, bisector float64) {
	gapStart := sorted[len(sorted)-1]
	gap = sorted[0] + TwoPi - sorted[len(sorted)-1]
	for i := 1; i < len(sorted); i++ {
		if g := sorted[i] - sorted[i-1]; g > gap {
			gap = g
			gapStart = sorted[i-1]
		}
	}
	return gap, NormalizeAngle(gapStart + gap/2)
}

// SortAngles returns a new slice with the angles normalized to [0, 2π)
// and sorted ascending.
func SortAngles(angles []float64) []float64 {
	out := make([]float64, len(angles))
	for i, a := range angles {
		out[i] = NormalizeAngle(a)
	}
	sort.Float64s(out)
	return out
}

// CoversAllDirections reports whether every direction on the circle is
// within tolerance θ of at least one of the given directions — i.e.
// whether the directions θ-cover the circle. Equivalent to
// MaxCircularGap(angles) ≤ 2θ.
func CoversAllDirections(angles []float64, theta float64) bool {
	if len(angles) == 0 {
		return false
	}
	gap, _ := MaxCircularGap(angles)
	return gap <= 2*theta
}
