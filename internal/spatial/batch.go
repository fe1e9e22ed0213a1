// Batch gather: the batch execution path of the spatial index.
//
// Grid workloads — surveys, sweeps, job bands — evaluate dense point
// sets whose neighbours land in the same bucket of every tier grid. The
// point-at-a-time entry points re-derive that bucket, re-walk the same
// 3×3 cell neighbourhood, and re-scan the same CSR candidate rows for
// every single point. The batch path amortises all of that with one of
// two walks, chosen per batch from the batch's shape (minMeanRun).
//
// The run walk serves grid input. deploy.GridPoints emits X outer and
// Y inner, so every survey batch, job band and experiment grid is made
// of column runs: consecutive points with one wrapped X and strictly
// increasing wrapped Y. A sector no wider than π meets such a line in
// one interval, and a wider one stays within its disc's chord. So per
// tier each run segment enumerates its candidate cells once, and each
// candidate computes the Y interval where it can cover the run — the
// disc chord at the run's X offset, cut by the sector's two half-planes
// when the aperture is below π. Only the points inside that interval,
// found by an interpolation probe or a binary search, run the exact
// cover arithmetic. The interval carries slack (runChordSlack,
// runSectorSlack, prefilterSlack), so a point outside it provably fails
// covers(), and a candidate whose fl(du²) exceeds r² is skipped exactly.
//
// The cell-group walk serves scattered input. Points are sorted by grid
// cell once per tier (a single []int64 key sort over reusable scratch,
// zero allocations in the steady state), each occupied
// cell-neighbourhood is walked exactly once per batch, and every
// candidate row is scanned candidate-major — the camera's SoA columns
// (position, orientation sin/cos, radius², cos φ/2) are loaded into
// registers once and tested against the whole cell's points — instead of
// point-major. Two further savings fall out of the cell grouping:
//
//   - Per-tier span arithmetic (reach, whole-tier fallback) hoists from
//     per-point to per-batch, and the toroidal Wrap of each point runs
//     once per batch rather than once per call.
//   - A conservative cell-level prefilter rejects candidates whose disc
//     cannot reach any point of the group: the group's bounding box is
//     compared against the candidate's radius with a slack far larger
//     than the accumulated rounding error, so a skipped candidate is one
//     the exact per-point test would provably reject too (see
//     prefilterSlack). Bit-identity is preserved because skipping only
//     removes candidates whose covers() is false for every group point.
//
// Results are not merely the same multiset as the point-at-a-time path —
// they are the same per-point sequences. Both walks process tiers in
// index order, meet each point's buckets in the point path's (dy, dx)
// order, candidates in CSR row order, and overlay-added cameras last.
// The run walk keeps that order by capping each run segment at
// cells − 2·reach cell rows, so its widened row walk never meets a
// wrapped row twice, and by testing each bucket only against the
// segment points whose own neighbourhood contains it. The final
// counting-sort placement is stable in emission order, so each point's
// slice of the CSR result equals the corresponding AppendCovering /
// AppendViewedDirections output element for element. The overlay-aware
// Source path (MutableIndex, View) runs the identical engine with the
// removed-bitmap check hoisted to once per candidate.
package spatial

import (
	"math"
	"slices"

	"fullview/internal/geom"
)

// prefilterSlack is the absolute slack (as a fraction of the torus
// side) subtracted from the cell-level lower distance bound before it
// may reject a candidate. The bound is assembled from a handful of
// additions and one halving — each exact to ~1 ulp (≈2e-16 relative) —
// so a 1e-12·side margin exceeds the worst-case accumulated error by
// almost four orders of magnitude while remaining far below any sensing
// radius the index would ever bucket. A candidate rejected under this
// slack therefore provably fails the per-point radius test for every
// point of the group, keeping batch verdicts bit-identical to the
// point-at-a-time path.
const prefilterSlack = 1e-12

// minMeanRun is the batch-shape dispatch rule: a batch whose mean
// column-run length reaches it takes the run walk, and any more
// scattered batch keeps the cell-group walk. DESIGN.md §6 records the
// measurement behind the value.
const minMeanRun = 8

// runChordSlack widens the run walk's disc chord: the half-length is
// √(r² − fl(du²) + runChordSlack·r²) + prefilterSlack·side. Every
// rounding step between that bound and the exact n2 = du² + dy² test
// costs a few ulps relative to r² (≈1e-16), so a point outside the
// widened chord provably has n2 > r² and fails covers().
const runChordSlack = 1e-9

// runSectorSlack widens the two half-planes of a sector below π: a
// point covers() accepts lies within a few ulps of angle of the true
// sector, and the half-plane bound, solved for dy with rounded edge
// directions, is off by a few ulps of (|du| + chord). The bound is
// moved outwards by runSectorSlack·(|du| + chord), seven orders of
// magnitude more than both errors.
const runSectorSlack = 1e-9

// BatchScratch owns every buffer the batch gather needs. The zero value
// is ready to use; buffers grow on first use and are reused by later
// batches, so a caller that keeps one scratch per worker pays zero
// allocations per point in the steady state. A BatchScratch must not be
// shared between goroutines.
type BatchScratch struct {
	wx, wy []float64 // wrapped point coordinates, indexed like the batch
	keys   []int64   // per-tier sort keys: bucket<<32 | point index
	gx, gy []float64 // current group's coordinates, unpacked contiguously
	gi     []int32   // current group's batch point indices, same order
	hitPt  []int32   // emission-ordered (point, camera) covering pairs
	hitCam []int32
	counts []int32 // per-point hit counts, then placement cursors
	offs   []int32 // CSR offsets over the batch (len = points+1)
	cams   []int32 // result storage for AppendCoveringBatch
	dirs   []float64
	// Run walk: the batch's column-run starts followed by the batch
	// length, and the current run segment's first point per cell row
	// followed by the segment end.
	runs     []int32
	rowStart []int32
}

// growI32 returns a length-n slice, reusing s's storage when it is
// large enough.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// AppendCoveringBatch computes the covering-camera indices of every
// point in the batch through the cell-sorted gather. The result is CSR
// over the batch: cams[offs[i]:offs[i+1]] lists the cameras covering
// points[i], element for element equal to what AppendCovering appends
// for that point. Both returned slices are owned by sc and are valid
// until its next batch call.
func (ix *Index) AppendCoveringBatch(sc *BatchScratch, points []geom.Vec) (cams []int32, offs []int32) {
	ix.gatherBatch(sc, points, nil)
	return sc.placeCams(ix, nil)
}

// AppendViewedDirectionsBatch is AppendCoveringBatch for viewed
// directions: dirs[offs[i]:offs[i+1]] holds the viewed directions of
// the cameras covering points[i], element for element equal to the
// AppendViewedDirections output. Both returned slices are owned by sc
// and are valid until its next batch call.
func (ix *Index) AppendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec) (dirs []float64, offs []int32) {
	ix.gatherBatch(sc, points, nil)
	return sc.placeDirs(ix, nil)
}

// gatherBatch runs the cell-sorted candidate scan for the whole batch,
// leaving the emission-ordered (point, camera) pairs and per-point
// counts in sc. d is the mutation overlay (nil for a pure Index), whose
// removed bitmap is consulted once per candidate and whose added
// cameras are scanned last with the exact sensor predicates — the same
// order the point-at-a-time overlay path uses.
func (ix *Index) gatherBatch(sc *BatchScratch, points []geom.Vec, d *overlay) {
	n := len(points)
	sc.wx = growF64(sc.wx, n)
	sc.wy = growF64(sc.wy, n)
	sc.keys = growI64(sc.keys, n)
	sc.gx = growF64(sc.gx, n)
	sc.gy = growF64(sc.gy, n)
	sc.gi = growI32(sc.gi, n)
	sc.counts = growI32(sc.counts, n)
	sc.hitPt = sc.hitPt[:0]
	sc.hitCam = sc.hitCam[:0]
	for i := range sc.counts[:n] {
		sc.counts[i] = 0
	}
	if n == 0 {
		return
	}
	for i, p := range points {
		w := ix.torus.Wrap(p)
		sc.wx[i] = w.X
		sc.wy[i] = w.Y
	}

	runWalk := sc.findRuns(n)
	for ti := range ix.tiers {
		t := &ix.tiers[ti]
		if runWalk {
			ix.walkRuns(sc, d, t)
			continue
		}
		if t.cells == 1 || 2*(int(t.maxR/t.cellSize)+1)+1 >= t.cells {
			// Whole-tier scan (the span "all" case), hoisted to once per
			// batch: every candidate row is t.camIdx, every point is in
			// one group.
			sc.keys = sc.keys[:n]
			for i := 0; i < n; i++ {
				sc.keys[i] = int64(i)
			}
			g := sc.prepareGroup(sc.keys[:n])
			ix.scanCandidates(sc, d, t.camIdx, g)
			continue
		}
		reach := int(t.maxR/t.cellSize) + 1
		cells := t.cells
		// Sort the batch by bucket: key = bucket<<32 | index, so equal
		// buckets group together and ties keep batch order, making the
		// grouping deterministic.
		sc.keys = sc.keys[:n]
		for i := 0; i < n; i++ {
			cx := int(sc.wx[i] / t.cellSize)
			cy := int(sc.wy[i] / t.cellSize)
			if cx >= cells {
				cx = cells - 1
			}
			if cy >= cells {
				cy = cells - 1
			}
			sc.keys[i] = int64(cy*cells+cx)<<32 | int64(i)
		}
		slices.Sort(sc.keys)
		for lo := 0; lo < n; {
			bucket := sc.keys[lo] >> 32
			hi := lo + 1
			for hi < n && sc.keys[hi]>>32 == bucket {
				hi++
			}
			g := sc.prepareGroup(sc.keys[lo:hi])
			pcx := int(bucket) % cells
			pcy := int(bucket) / cells
			for dy := -reach; dy <= reach; dy++ {
				row := wrapCell(pcy+dy, cells) * cells
				for dx := -reach; dx <= reach; dx++ {
					b := row + wrapCell(pcx+dx, cells)
					ix.scanCandidates(sc, d, t.camIdx[t.starts[b]:t.starts[b+1]], g)
				}
			}
			lo = hi
		}
	}

	if d != nil {
		// Overlay-added cameras come last, exactly as in the point path,
		// via the exact sensor predicates the CSR test is bit-identical
		// to by contract.
		baseLen := int32(ix.Len())
		for j := range d.added {
			cam := &d.added[j]
			ci := baseLen + int32(j)
			for i := 0; i < n; i++ {
				if cam.Covers(ix.torus, geom.Vec{X: sc.wx[i], Y: sc.wy[i]}) {
					sc.hitPt = append(sc.hitPt, int32(i))
					sc.hitCam = append(sc.hitCam, ci)
					sc.counts[i]++
				}
			}
		}
	}
}

// groupView describes one prepared point group: its size (the leading
// n elements of sc.gx/gy/gi) and its bounding box in wrapped
// coordinates.
type groupView struct {
	n                      int
	minX, maxX, minY, maxY float64
}

// prepareGroup unpacks one sorted-key group into the contiguous gx/gy/gi
// scratch columns — so the candidate-major inner loops stream over dense
// memory instead of re-deriving indices from packed keys — and computes
// the group's bounding box. Points of one bucket never straddle the wrap
// seam (all coordinates live in [0, side)), so the box is a plain
// interval per axis; for the whole-tier case the box may span the whole
// domain and the prefilter simply stops rejecting.
func (sc *BatchScratch) prepareGroup(group []int64) groupView {
	n := len(group)
	gx, gy, gi := sc.gx[:n], sc.gy[:n], sc.gi[:n]
	i0 := int32(uint64(group[0]) & 0xffffffff)
	x0, y0 := sc.wx[i0], sc.wy[i0]
	gx[0], gy[0], gi[0] = x0, y0, i0
	g := groupView{n: n, minX: x0, maxX: x0, minY: y0, maxY: y0}
	for k := 1; k < n; k++ {
		i := int32(uint64(group[k]) & 0xffffffff)
		x, y := sc.wx[i], sc.wy[i]
		gx[k], gy[k], gi[k] = x, y, i
		if x < g.minX {
			g.minX = x
		} else if x > g.maxX {
			g.maxX = x
		}
		if y < g.minY {
			g.minY = y
		} else if y > g.maxY {
			g.maxY = y
		}
	}
	return g
}

// scanCandidates tests one candidate row against one prepared point
// group, candidate-major: each camera's SoA columns are loaded once and
// held across the whole group. The cell-level prefilter rejects a
// candidate only when its disc provably misses the group's bounding
// box; every surviving candidate runs the exact covers arithmetic, so
// emissions are bit-identical to per-point AppendCovering calls.
//
// Before the inner loop, the toroidal wrap of each axis is classified
// once per candidate against the group's bounding box: floating-point
// subtraction is monotone, so every computed difference gx[k]−px lies in
// [minX−px, maxX−px], and when that whole interval falls on one side of
// the ±half wrap boundaries the per-point branch outcome is uniform —
// the correction becomes a loop-invariant constant (±side or none) and
// the hot loop runs with a single data-dependent branch (the radius
// test) instead of five. The applied arithmetic is exactly the
// point-at-a-time path's (the same conditional ±side add on the same
// computed difference), so results stay bit-identical; groups whose
// interval straddles a wrap boundary (only possible near the torus
// seam) take the fully-branchy fallback, which is the oracle verbatim.
func (ix *Index) scanCandidates(sc *BatchScratch, d *overlay, cands []int32, g groupView) {
	if len(cands) == 0 || g.n == 0 {
		return
	}
	gx, gy, gi := sc.gx[:g.n], sc.gy[:g.n], sc.gi[:g.n]
	cx0 := (g.minX + g.maxX) / 2
	cy0 := (g.minY + g.maxY) / 2
	hx := (g.maxX-g.minX)/2 + prefilterSlack*ix.side
	hy := (g.maxY-g.minY)/2 + prefilterSlack*ix.side

	side, half := ix.side, ix.half
	for _, c := range cands {
		if d != nil && d.isRemoved(c) {
			continue
		}
		px, py := ix.posX[c], ix.posY[c]
		r2 := ix.radius2[c]

		// Conservative reject: circle-metric distance from the camera to
		// the box centre, minus the (slack-inflated) half extents, is a
		// lower bound on the distance to every group point; if even that
		// bound exceeds the radius, covers() is false for the whole
		// group.
		adx := cx0 - px
		if adx < -half {
			adx += side
		} else if adx >= half {
			adx -= side
		}
		if adx < 0 {
			adx = -adx
		}
		ady := cy0 - py
		if ady < -half {
			ady += side
		} else if ady >= half {
			ady -= side
		}
		if ady < 0 {
			ady = -ady
		}
		if adx -= hx; adx < 0 {
			adx = 0
		}
		if ady -= hy; ady < 0 {
			ady = 0
		}
		if adx*adx+ady*ady > r2 {
			continue
		}

		// Wrap classification: the computed differences for this
		// candidate span [lo, hi] per axis (monotone FP subtraction).
		var corrX, corrY float64
		mixed := false
		if lo, hi := g.minX-px, g.maxX-px; hi < -half {
			corrX = side
		} else if lo >= half {
			corrX = -side
		} else if lo < -half || hi >= half {
			mixed = true
		}
		if lo, hi := g.minY-py, g.maxY-py; hi < -half {
			corrY = side
		} else if lo >= half {
			corrY = -side
		} else if lo < -half || hi >= half {
			mixed = true
		}

		co, si := ix.cosOrient[c], ix.sinOrient[c]
		ch := ix.cosHalf[c]
		if mixed {
			// Seam-straddling group: per-point wrap branches, exactly the
			// point-at-a-time arithmetic.
			for k := 0; k < g.n; k++ {
				dxp := gx[k] - px
				if dxp < -half {
					dxp += side
				} else if dxp >= half {
					dxp -= side
				}
				dyp := gy[k] - py
				if dyp < -half {
					dyp += side
				} else if dyp >= half {
					dyp -= side
				}
				n2 := dxp*dxp + dyp*dyp
				if n2 > r2 {
					continue
				}
				if dxp != 0 || dyp != 0 {
					dot := dxp*co + dyp*si
					norm := math.Sqrt(n2)
					rhs := norm * ch
					margin := coverGuard * norm
					if dot-rhs > margin {
						// covered
					} else if rhs-dot > margin {
						continue
					} else if !ix.coversExact(c, dxp, dyp) {
						continue
					}
				}
				i := gi[k]
				sc.hitPt = append(sc.hitPt, i)
				sc.hitCam = append(sc.hitCam, c)
				sc.counts[i]++
			}
			continue
		}
		for k := 0; k < g.n; k++ {
			// Inline ix.covers with the camera columns held in locals and
			// the wrap correction hoisted; arithmetic and guard-band
			// fallback are identical. The corr != 0 guards preserve the
			// unwrapped difference bit for bit (including a −0.0 from a
			// point coincident with the camera) and predict perfectly —
			// they are loop-invariant.
			dxp := gx[k] - px
			if corrX != 0 {
				dxp += corrX
			}
			dyp := gy[k] - py
			if corrY != 0 {
				dyp += corrY
			}
			n2 := dxp*dxp + dyp*dyp
			if n2 > r2 {
				continue
			}
			if dxp != 0 || dyp != 0 {
				dot := dxp*co + dyp*si
				norm := math.Sqrt(n2)
				rhs := norm * ch
				margin := coverGuard * norm
				if dot-rhs > margin {
					// covered
				} else if rhs-dot > margin {
					continue
				} else if !ix.coversExact(c, dxp, dyp) {
					continue
				}
			}
			i := gi[k]
			sc.hitPt = append(sc.hitPt, i)
			sc.hitCam = append(sc.hitCam, c)
			sc.counts[i]++
		}
	}
}

// findRuns splits the batch into column runs — maximal stretches of
// consecutive points with bit-equal wrapped X and strictly increasing
// wrapped Y — and reports whether their mean length reaches
// minMeanRun. It stops counting as soon as the mean cannot.
func (sc *BatchScratch) findRuns(n int) bool {
	sc.runs = append(sc.runs[:0], 0)
	for i := 1; i < n; i++ {
		if math.Float64bits(sc.wx[i]) != math.Float64bits(sc.wx[i-1]) || !(sc.wy[i] > sc.wy[i-1]) {
			sc.runs = append(sc.runs, int32(i))
			if minMeanRun*len(sc.runs) > n {
				return false
			}
		}
	}
	sc.runs = append(sc.runs, int32(n))
	return true
}

// walkRuns is the run walk for one tier. Each column run is cut into
// segments spanning at most cells − 2·reach cell rows, so the segment's
// row walk (its rows widened by reach on both sides) never meets a
// wrapped row twice. The walk visits those rows in increasing order,
// and each (row, dx) bucket's candidates are tested only against the
// segment points whose own row lies within reach of it: every point
// then meets exactly its point-path (dy, dx) neighbourhood, in the
// point path's order.
func (ix *Index) walkRuns(sc *BatchScratch, d *overlay, t *tier) {
	cells := t.cells
	reach := int(t.maxR/t.cellSize) + 1
	all := cells == 1 || 2*reach+1 >= cells
	maxRows := cells - 2*reach
	for r := 0; r+1 < len(sc.runs); r++ {
		lo, hi := int(sc.runs[r]), int(sc.runs[r+1])
		if all {
			ix.scanRun(sc, d, t.camIdx, lo, hi)
			continue
		}
		pcx := min(int(sc.wx[lo]/t.cellSize), cells-1)
		for s := lo; s < hi; {
			// rowStart[j] is the segment's first point in cell row a+j.
			a := min(int(sc.wy[s]/t.cellSize), cells-1)
			sc.rowStart = sc.rowStart[:0]
			e := s
			for ; e < hi; e++ {
				j := min(int(sc.wy[e]/t.cellSize), cells-1) - a
				if j >= maxRows {
					break
				}
				for len(sc.rowStart) <= j {
					sc.rowStart = append(sc.rowStart, int32(e))
				}
			}
			rows := len(sc.rowStart)
			sc.rowStart = append(sc.rowStart, int32(e))
			for row := a - reach; row < a+rows+reach; row++ {
				p0 := int(sc.rowStart[max(row-reach-a, 0)])
				p1 := int(sc.rowStart[min(row+reach+1-a, rows)])
				if p0 == p1 {
					continue
				}
				base := wrapCell(row, cells) * cells
				for dx := -reach; dx <= reach; dx++ {
					b := base + wrapCell(pcx+dx, cells)
					ix.scanRun(sc, d, t.camIdx[t.starts[b]:t.starts[b+1]], p0, p1)
				}
			}
			s = e
		}
	}
}

// scanRun tests one candidate row against the run points lo..hi-1,
// which share one wrapped X and have strictly increasing wrapped Y.
// Each candidate's X offset du is the same computed value for every
// point, so fl(du²) > r² rejects the candidate exactly. Otherwise the
// candidate can only cover points whose computed Y offset lies inside
// the disc chord at du, intersected with the sector's two half-planes
// when the aperture is below π; both bounds carry slack (runChordSlack,
// runSectorSlack) and the Y interval is widened by prefilterSlack·side
// before the search, so every point outside it provably fails covers().
// The points inside run covers() itself.
func (ix *Index) scanRun(sc *BatchScratch, d *overlay, cands []int32, lo, hi int) {
	if len(cands) == 0 {
		return
	}
	x, ys := sc.wx[lo], sc.wy[:hi]
	g := newRunGuess(ys, lo, hi)
	side, half := ix.side, ix.half
	slack := prefilterSlack * side
	for _, c := range cands {
		if d != nil && d.isRemoved(c) {
			continue
		}
		du := x - ix.posX[c]
		if du < -half {
			du += side
		} else if du >= half {
			du -= side
		}
		r2 := ix.radius2[c]
		if du*du > r2 {
			continue
		}
		h := math.Sqrt(r2-du*du+runChordSlack*r2) + slack
		tLo, tHi := -h, h
		if ix.halfAper[c] < math.Pi/2 {
			co, si := ix.cosOrient[c], ix.sinOrient[c]
			ch, sh := ix.cosHalf[c], ix.sinHalf[c]
			delta := runSectorSlack * (math.Abs(du) + h)
			// Edge f+φ/2, direction (ex, ey): covered points satisfy
			// ex·dy − ey·du ≤ 0.
			ex, ey := co*ch-si*sh, si*ch+co*sh
			if v := ey*du + delta; ex > 0 {
				if b := v / ex; b < tHi {
					tHi = b
				}
			} else if ex < 0 {
				if b := v / ex; b > tLo {
					tLo = b
				}
			} else if v < 0 {
				continue
			}
			// Edge f−φ/2: covered points satisfy ex·dy − ey·du ≥ 0.
			ex, ey = co*ch+si*sh, si*ch-co*sh
			if v := ey*du - delta; ex > 0 {
				if b := v / ex; b > tLo {
					tLo = b
				}
			} else if ex < 0 {
				if b := v / ex; b < tHi {
					tHi = b
				}
			} else if v > 0 {
				continue
			}
		}
		// A computed wrapped difference never leaves [−half, half].
		if tLo < -half {
			tLo = -half
		}
		if tHi > half {
			tHi = half
		}
		if tLo > tHi {
			continue
		}
		// Test [k0, k1) and then [k2, hi). The Y interval is the torus
		// arc [yLo, yHi): one middle stretch of the run, or a prefix and
		// a suffix when it wraps. The widening puts a point at either end
		// strictly outside [tLo, tHi], so the arc may be half-open. NaN
		// bounds fall through to the whole run.
		k0, k1, k2 := lo, hi, hi
		py := ix.posY[c]
		if yLo, yHi := py+tLo-slack, py+tHi+slack; yHi-yLo < side {
			switch {
			case yLo < 0:
				k1 = g.find(ys, yHi)
				k2 = max(g.find(ys, yLo+side), k1)
			case yHi >= side:
				k1 = g.find(ys, yHi-side)
				k2 = max(g.find(ys, yLo), k1)
			default:
				k0 = g.find(ys, yLo)
				k1 = max(g.find(ys, yHi), k0)
			}
		}
		ix.emitRun(sc, c, x, k0, k1)
		ix.emitRun(sc, c, x, k2, hi)
	}
}

// emitRun records each run point k0..k1-1, at wrapped X x, that camera
// c covers, through the point path's own covers test.
func (ix *Index) emitRun(sc *BatchScratch, c int32, x float64, k0, k1 int) {
	for k := k0; k < k1; k++ {
		if ix.covers(c, x, sc.wy[k]) {
			sc.hitPt = append(sc.hitPt, int32(k))
			sc.hitCam = append(sc.hitCam, c)
			sc.counts[k]++
		}
	}
}

// runGuess locates Y values in the run points lo..hi-1. A search first
// probes the index that linear interpolation predicts, which is exact
// on an evenly spaced run such as a grid column, and falls back to
// binary search otherwise.
type runGuess struct {
	lo, hi int
	y0     float64 // Y of the first point
	perY   float64 // points per unit of Y
}

func newRunGuess(ys []float64, lo, hi int) runGuess {
	g := runGuess{lo: lo, hi: hi, y0: ys[lo]}
	if hi-lo > 1 {
		g.perY = float64(hi-1-lo) / (ys[hi-1] - ys[lo])
	}
	return g
}

// find returns the first k in [lo, hi) with ys[k] ≥ v, or hi.
func (g runGuess) find(ys []float64, v float64) int {
	// On an evenly spaced run the answer is ⌊f⌋+1 points past lo, or ⌊f⌋
	// when v sits on a point or rounding moved f past one.
	k := g.lo
	if f := (v - g.y0) * g.perY; f > 0 {
		k = g.hi
		if f < float64(g.hi-g.lo) {
			k = g.lo + int(f) + 1
		}
	}
	for stop := max(k-1, g.lo); k >= stop; k-- {
		if (k == g.lo || ys[k-1] < v) && (k == g.hi || ys[k] >= v) {
			return k
		}
	}
	lo, hi := g.lo, g.hi
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ys[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// buildOffsets turns the per-point counts into CSR offsets and resets
// the counts to per-point placement cursors.
func (sc *BatchScratch) buildOffsets(n int) int {
	sc.offs = growI32(sc.offs, n+1)
	total := int32(0)
	sc.offs[0] = 0
	for i := 0; i < n; i++ {
		total += sc.counts[i]
		sc.offs[i+1] = total
		sc.counts[i] = sc.offs[i]
	}
	return int(total)
}

// placeCams materialises the CSR camera-index result from the emission
// stream. Placement walks hits in emission order and each point's
// cursor advances monotonically, so per-point order equals emission
// order — the point-at-a-time candidate order.
func (sc *BatchScratch) placeCams(ix *Index, d *overlay) ([]int32, []int32) {
	n := len(sc.wx)
	total := sc.buildOffsets(n)
	sc.cams = growI32(sc.cams, total)
	for h, p := range sc.hitPt {
		sc.cams[sc.counts[p]] = sc.hitCam[h]
		sc.counts[p]++
	}
	return sc.cams, sc.offs[:n+1]
}

// placeDirs is placeCams for viewed directions: base cameras go through
// the index's viewedDirection (bit-identical to the point path), overlay
// additions through the exact sensor predicate.
func (sc *BatchScratch) placeDirs(ix *Index, d *overlay) ([]float64, []int32) {
	n := len(sc.wx)
	total := sc.buildOffsets(n)
	sc.dirs = growF64(sc.dirs, total)
	baseLen := int32(ix.Len())
	for h, p := range sc.hitPt {
		c := sc.hitCam[h]
		var dir float64
		if c < baseLen {
			dir = ix.viewedDirection(c, sc.wx[p], sc.wy[p])
		} else {
			dir = d.added[c-baseLen].ViewedDirection(ix.torus, geom.Vec{X: sc.wx[p], Y: sc.wy[p]})
		}
		sc.dirs[sc.counts[p]] = dir
		sc.counts[p]++
	}
	return sc.dirs, sc.offs[:n+1]
}

// AppendCoveringBatch implements Source over the current snapshot; see
// Index.AppendCoveringBatch for the result contract and Source for the
// index semantics of overlay-added cameras.
func (m *MutableIndex) AppendCoveringBatch(sc *BatchScratch, points []geom.Vec) ([]int32, []int32) {
	return m.cur.Load().appendCoveringBatch(sc, points)
}

// AppendViewedDirectionsBatch implements Source over the current
// snapshot.
func (m *MutableIndex) AppendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec) ([]float64, []int32) {
	return m.cur.Load().appendViewedDirectionsBatch(sc, points)
}

// AppendCoveringBatch implements Source over the pinned snapshot.
func (v *View) AppendCoveringBatch(sc *BatchScratch, points []geom.Vec) ([]int32, []int32) {
	return v.s.appendCoveringBatch(sc, points)
}

// AppendViewedDirectionsBatch implements Source over the pinned
// snapshot.
func (v *View) AppendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec) ([]float64, []int32) {
	return v.s.appendViewedDirectionsBatch(sc, points)
}

func (s *mutSnapshot) appendCoveringBatch(sc *BatchScratch, points []geom.Vec) ([]int32, []int32) {
	s.base.gatherBatch(sc, points, s.delta)
	return sc.placeCams(s.base, s.delta)
}

func (s *mutSnapshot) appendViewedDirectionsBatch(sc *BatchScratch, points []geom.Vec) ([]float64, []int32) {
	s.base.gatherBatch(sc, points, s.delta)
	return sc.placeDirs(s.base, s.delta)
}
