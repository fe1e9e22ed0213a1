// Package spatial provides a toroidal spatial index over a camera
// network. Grid sweeps ask "which cameras cover point P?" for hundreds of
// thousands of points; the index answers in O(local density) instead of
// O(n). Results are exactly — bit for bit — what a brute-force scan
// through the sensor.Camera.Covers predicate would produce: the hot path
// uses a cheaper algebraic form of the same test and falls back to the
// exact predicate inside a guard band around decision boundaries.
//
// # Layout
//
// Cameras are stored twice: as the original structs (for accessors) and
// as structure-of-arrays columns (positions, orientation sin/cos,
// squared radius, half-aperture and its cosine and sine) so the
// per-candidate cover test is a branch-light scan over flat float64
// slices.
//
// Cameras are partitioned into radius tiers (each tier spans at most a
// 2× radius ratio) and each tier gets its own bucket grid in compressed
// sparse row form: starts []int32 offsets into one flat camIdx []int32
// slice. A query visits each tier with that tier's own reach, so a
// heterogeneous network — the paper's whole subject — never scans the
// neighbourhood of its largest radius on behalf of its smallest group.
// Candidate enumeration is closure-free: the public methods walk the
// CSR rows inline and append into caller-owned scratch buffers.
package spatial

import (
	"math"
	"sort"

	"fullview/internal/geom"
	"fullview/internal/sensor"
)

// maxCellsPerSide bounds index memory: cells² ints regardless of how
// small the sensing radius gets.
const maxCellsPerSide = 2048

// tierRatio is the maximum radius ratio within one tier: a camera's
// cells are scanned with at most tierRatio× its own radius as reach.
const tierRatio = 2

// coverGuard is the relative width of the guard band around the angular
// decision boundary. The algebraic test d·f̂ ≷ |d|·cos(φ/2) agrees with
// the exact atan2-based predicate whenever the two sides differ by more
// than a few ulps; any candidate within coverGuard·|d| of the boundary
// is re-examined with the exact predicate instead, keeping the index
// bit-identical to sensor.Camera.Covers for every input (including NaN,
// which fails both certainty tests and takes the exact path).
const coverGuard = 1e-9

// Index is an immutable spatial index over the cameras of one network.
type Index struct {
	torus   geom.Torus
	side    float64
	half    float64
	cameras []sensor.Camera

	// Structure-of-arrays camera columns, indexed like cameras.
	posX, posY []float64
	orient     []float64 // orientation, normalized to [0, 2π)
	radius2    []float64 // Radius²
	halfAper   []float64 // Aperture/2
	cosOrient  []float64
	sinOrient  []float64
	cosHalf    []float64 // cos(Aperture/2)
	sinHalf    []float64 // sin(Aperture/2)

	tiers []tier
}

// tier is one radius class with its own CSR bucket grid.
type tier struct {
	maxR     float64
	cells    int
	cellSize float64
	starts   []int32 // length cells*cells+1; CSR row offsets into camIdx
	camIdx   []int32 // camera indices grouped by bucket
}

// NewIndex builds an index for the network. Building is O(n log n); the
// network's cameras are copied so later mutations of the source slice
// cannot corrupt the index.
func NewIndex(net *sensor.Network) *Index {
	cameras := net.Cameras()
	t := net.Torus()
	n := len(cameras)

	ix := &Index{
		torus:     t,
		side:      t.Side(),
		half:      t.Side() / 2,
		cameras:   cameras,
		posX:      make([]float64, n),
		posY:      make([]float64, n),
		orient:    make([]float64, n),
		radius2:   make([]float64, n),
		halfAper:  make([]float64, n),
		cosOrient: make([]float64, n),
		sinOrient: make([]float64, n),
		cosHalf:   make([]float64, n),
		sinHalf:   make([]float64, n),
	}
	for i, c := range cameras {
		ix.posX[i] = c.Pos.X
		ix.posY[i] = c.Pos.Y
		ix.orient[i] = c.Orient
		ix.radius2[i] = c.Radius * c.Radius
		ix.halfAper[i] = c.Aperture / 2
		sin, cos := math.Sincos(c.Orient)
		ix.sinOrient[i] = sin
		ix.cosOrient[i] = cos
		ix.cosHalf[i] = math.Cos(c.Aperture / 2)
		ix.sinHalf[i] = math.Sin(c.Aperture / 2)
	}
	ix.buildTiers()
	return ix
}

// buildTiers partitions cameras into radius classes spanning at most
// tierRatio× each and builds one CSR bucket grid per class. Tier count
// is logarithmic in the radius spread, so even a network whose radii
// span 100× gets a handful of tiers, each scanned with its own reach.
func (ix *Index) buildTiers() {
	n := len(ix.cameras)
	if n == 0 {
		return
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return ix.cameras[order[a]].Radius < ix.cameras[order[b]].Radius
	})
	for lo := 0; lo < n; {
		base := ix.cameras[order[lo]].Radius
		hi := lo + 1
		for hi < n && ix.cameras[order[hi]].Radius <= tierRatio*base {
			hi++
		}
		ix.tiers = append(ix.tiers, ix.buildTier(order[lo:hi]))
		lo = hi
	}
}

// buildTier lays the given cameras into one CSR bucket grid sized for
// the group's largest radius.
func (ix *Index) buildTier(members []int32) tier {
	maxR := 0.0
	for _, i := range members {
		if r := ix.cameras[i].Radius; r > maxR {
			maxR = r
		}
	}
	cells := cellsPerSide(ix.side, maxR, len(members))
	t := tier{
		maxR:     maxR,
		cells:    cells,
		cellSize: ix.side / float64(cells),
		starts:   make([]int32, cells*cells+1),
		camIdx:   make([]int32, len(members)),
	}
	// Counting sort into CSR: bucket sizes, prefix sums, then placement.
	for _, i := range members {
		t.starts[t.bucketOf(ix.posX[i], ix.posY[i])+1]++
	}
	for b := 1; b < len(t.starts); b++ {
		t.starts[b] += t.starts[b-1]
	}
	cursor := make([]int32, cells*cells)
	for _, i := range members {
		b := t.bucketOf(ix.posX[i], ix.posY[i])
		t.camIdx[t.starts[b]+cursor[b]] = i
		cursor[b]++
	}
	return t
}

// bucketOf maps an already-wrapped position to its bucket.
func (t *tier) bucketOf(x, y float64) int32 {
	cx := int(x / t.cellSize)
	cy := int(y / t.cellSize)
	// Guard against x/cellSize rounding up to t.cells.
	if cx >= t.cells {
		cx = t.cells - 1
	}
	if cy >= t.cells {
		cy = t.cells - 1
	}
	return int32(cy*t.cells + cx)
}

// cellsPerSide picks a tier's grid resolution: ideally one cell per
// sensing radius (so a query touches a 3×3 neighbourhood), but never more
// cells than roughly 2√n per side (so memory stays proportional to n) and
// never more than maxCellsPerSide.
func cellsPerSide(side, maxR float64, n int) int {
	if n == 0 || maxR <= 0 {
		return 1
	}
	cells := int(side / maxR)
	if byCount := int(2*math.Sqrt(float64(n))) + 1; cells > byCount {
		cells = byCount
	}
	if cells > maxCellsPerSide {
		cells = maxCellsPerSide
	}
	if cells < 1 {
		cells = 1
	}
	return cells
}

// Len returns the number of indexed cameras.
func (ix *Index) Len() int { return len(ix.cameras) }

// Camera returns the i-th indexed camera.
func (ix *Index) Camera(i int) sensor.Camera { return ix.cameras[i] }

// Torus returns the operational region.
func (ix *Index) Torus() geom.Torus { return ix.torus }

// delta returns the shortest toroidal displacement from a to b for
// coordinates already wrapped into [0, side) — bit-identical to
// geom.Torus.Delta's per-coordinate result, whose math.Mod is the
// identity on |b−a| < side.
func (ix *Index) delta(a, b float64) float64 {
	d := b - a
	if d < -ix.half {
		d += ix.side
	} else if d >= ix.half {
		d -= ix.side
	}
	return d
}

// covers reports whether camera i covers the wrapped point (px, py).
// The result is bit-identical to sensor.Camera.Covers: the radius test
// is the same arithmetic, and the angular test uses the algebraic form
// with a guard band that defers to the exact predicate when the margin
// is within coverGuard·|d| of the boundary.
func (ix *Index) covers(i int32, px, py float64) bool {
	dx := ix.delta(ix.posX[i], px)
	dy := ix.delta(ix.posY[i], py)
	n2 := dx*dx + dy*dy
	if n2 > ix.radius2[i] {
		return false
	}
	if dx == 0 && dy == 0 {
		return true
	}
	// ∠(d, f) ≤ φ/2  ⟺  d·f̂ ≥ |d|·cos(φ/2)   (cos is monotone on [0, π]).
	dot := dx*ix.cosOrient[i] + dy*ix.sinOrient[i]
	norm := math.Sqrt(n2)
	rhs := norm * ix.cosHalf[i]
	margin := coverGuard * norm
	if dot-rhs > margin {
		return true
	}
	if rhs-dot > margin {
		return false
	}
	return ix.coversExact(i, dx, dy)
}

// coversExact is the boundary fallback: the angular predicate exactly
// as sensor.Camera.Covers computes it. Kept out of covers so the hot
// path stays small enough to inline.
func (ix *Index) coversExact(i int32, dx, dy float64) bool {
	return geom.AngularDistance(geom.Vec{X: dx, Y: dy}.Angle(), ix.orient[i]) <= ix.halfAper[i]
}

// viewedDirection returns the viewed direction of wrapped point (px,
// py) with respect to camera i, bit-identical to
// sensor.Camera.ViewedDirection (the angle of the vector P→S).
func (ix *Index) viewedDirection(i int32, px, py float64) float64 {
	return geom.Vec{X: ix.delta(px, ix.posX[i]), Y: ix.delta(py, ix.posY[i])}.Angle()
}

// tierSpan yields the cell-range parameters of one tier for a wrapped
// query point: when all is true the whole tier must be scanned;
// otherwise the (pcx, pcy, reach) neighbourhood applies.
func (t *tier) span(px, py float64) (pcx, pcy, reach int, all bool) {
	if t.cells == 1 {
		return 0, 0, 0, true
	}
	reach = int(t.maxR/t.cellSize) + 1
	if 2*reach+1 >= t.cells {
		return 0, 0, 0, true
	}
	pcx = int(px / t.cellSize)
	pcy = int(py / t.cellSize)
	if pcx >= t.cells {
		pcx = t.cells - 1
	}
	if pcy >= t.cells {
		pcy = t.cells - 1
	}
	return pcx, pcy, reach, false
}

// AppendCovering appends the indices of every camera covering p to dst
// and returns the extended slice, in unspecified order. Passing a
// reused buffer makes the query allocation-free in the steady state.
func (ix *Index) AppendCovering(dst []int32, p geom.Vec) []int32 {
	p = ix.torus.Wrap(p)
	for ti := range ix.tiers {
		t := &ix.tiers[ti]
		pcx, pcy, reach, all := t.span(p.X, p.Y)
		if all {
			for _, i := range t.camIdx {
				if ix.covers(i, p.X, p.Y) {
					dst = append(dst, i)
				}
			}
			continue
		}
		for dy := -reach; dy <= reach; dy++ {
			row := wrapCell(pcy+dy, t.cells) * t.cells
			for dx := -reach; dx <= reach; dx++ {
				b := row + wrapCell(pcx+dx, t.cells)
				for _, i := range t.camIdx[t.starts[b]:t.starts[b+1]] {
					if ix.covers(i, p.X, p.Y) {
						dst = append(dst, i)
					}
				}
			}
		}
	}
	return dst
}

// AppendViewedDirections appends the viewed directions (angle of P→S)
// of every camera covering p to dst and returns the extended slice.
// Passing a reused buffer avoids per-point allocations in grid sweeps.
func (ix *Index) AppendViewedDirections(dst []float64, p geom.Vec) []float64 {
	p = ix.torus.Wrap(p)
	for ti := range ix.tiers {
		t := &ix.tiers[ti]
		pcx, pcy, reach, all := t.span(p.X, p.Y)
		if all {
			for _, i := range t.camIdx {
				if ix.covers(i, p.X, p.Y) {
					dst = append(dst, ix.viewedDirection(i, p.X, p.Y))
				}
			}
			continue
		}
		for dy := -reach; dy <= reach; dy++ {
			row := wrapCell(pcy+dy, t.cells) * t.cells
			for dx := -reach; dx <= reach; dx++ {
				b := row + wrapCell(pcx+dx, t.cells)
				for _, i := range t.camIdx[t.starts[b]:t.starts[b+1]] {
					if ix.covers(i, p.X, p.Y) {
						dst = append(dst, ix.viewedDirection(i, p.X, p.Y))
					}
				}
			}
		}
	}
	return dst
}

// CountCovering returns the number of cameras covering p — the point's
// traditional k-coverage multiplicity.
func (ix *Index) CountCovering(p geom.Vec) int {
	p = ix.torus.Wrap(p)
	count := 0
	for ti := range ix.tiers {
		t := &ix.tiers[ti]
		pcx, pcy, reach, all := t.span(p.X, p.Y)
		if all {
			for _, i := range t.camIdx {
				if ix.covers(i, p.X, p.Y) {
					count++
				}
			}
			continue
		}
		for dy := -reach; dy <= reach; dy++ {
			row := wrapCell(pcy+dy, t.cells) * t.cells
			for dx := -reach; dx <= reach; dx++ {
				b := row + wrapCell(pcx+dx, t.cells)
				for _, i := range t.camIdx[t.starts[b]:t.starts[b+1]] {
					if ix.covers(i, p.X, p.Y) {
						count++
					}
				}
			}
		}
	}
	return count
}

// ForEachCovering calls fn for every camera that covers p, in
// unspecified order. fn must not retain the camera pointer past the
// call. Prefer the Append* forms on hot paths; this form exists for
// callers that need the full camera record.
func (ix *Index) ForEachCovering(p geom.Vec, fn func(cam *sensor.Camera)) {
	p = ix.torus.Wrap(p)
	for ti := range ix.tiers {
		t := &ix.tiers[ti]
		pcx, pcy, reach, all := t.span(p.X, p.Y)
		if all {
			for _, i := range t.camIdx {
				if ix.covers(i, p.X, p.Y) {
					fn(&ix.cameras[i])
				}
			}
			continue
		}
		for dy := -reach; dy <= reach; dy++ {
			row := wrapCell(pcy+dy, t.cells) * t.cells
			for dx := -reach; dx <= reach; dx++ {
				b := row + wrapCell(pcx+dx, t.cells)
				for _, i := range t.camIdx[t.starts[b]:t.starts[b+1]] {
					if ix.covers(i, p.X, p.Y) {
						fn(&ix.cameras[i])
					}
				}
			}
		}
	}
}

func wrapCell(c, cells int) int {
	if c < 0 {
		return c + cells
	}
	if c >= cells {
		return c - cells
	}
	return c
}
