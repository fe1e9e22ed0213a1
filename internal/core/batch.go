package core

import (
	"fullview/internal/geom"
)

// SurveyBatch diagnoses a whole point batch through the spatial index's
// cell-sorted batch gather and folds the reports into RegionStats. The
// per-point verdicts are bit-identical to a Report loop — the batch
// gather returns each point's viewed directions in exactly the order
// the point-at-a-time gather would, the occupancy evaluation below is
// the same code path over each point's CSR sub-slice, and the full-view
// decision is geom.MaxGapAtMost, which answers Report's gap ≤ 2θ test
// bit for bit without sorting (RegionStats never reads the gap value
// itself) — but the spatial work is amortised: each occupied grid
// cell's candidate neighbourhood is walked once per batch instead of
// once per point, and the per-θ 2θ threshold is hoisted out of the
// loop. Like Report, SurveyBatch reuses internal scratch and must not
// be called concurrently on one Checker.
func (c *Checker) SurveyBatch(points []geom.Vec) RegionStats {
	dirs, offs := c.index.AppendViewedDirectionsBatch(&c.batch, points)
	var stats RegionStats
	twoTheta := 2 * c.theta
	for i := range points {
		sub := dirs[offs[i]:offs[i+1]]
		// Occupancy first: it reads the raw directions, while the
		// full-view decision normalizes the sub-slice in place
		// (sub-slices are disjoint, so one never disturbs another's).
		necessary := c.necessary.allOccupied(sub)
		sufficient := c.sufficient.allOccupied(sub)
		stats.observe(PointReport{
			NumCovering: len(sub),
			FullView:    geom.MaxGapAtMost(sub, twoTheta, &c.gaps),
			Necessary:   necessary,
			Sufficient:  sufficient,
		})
	}
	return stats
}

// EvaluateBatch diagnoses a whole point batch for every configured θ,
// calling fn(i, report) once per point in batch order. Each report is
// bit-identical to Evaluate(points[i]); the batch gather amortises the
// spatial walk and the per-θ 2θ thresholds are hoisted out of the
// per-point loop. The report's PerTheta slice is reused across
// callbacks — fn must consume (or copy) it before returning.
func (m *MultiChecker) EvaluateBatch(points []geom.Vec, fn func(i int, rep MultiReport)) {
	dirs, offs := m.index.AppendViewedDirectionsBatch(&m.batch, points)
	for pi := range points {
		sub := dirs[offs[pi]:offs[pi+1]]
		for i := range m.occs {
			m.perTheta[i] = ThetaReport{
				Theta:      m.thetas[i],
				Necessary:  m.occs[i].necessary.allOccupied(sub),
				Sufficient: m.occs[i].sufficient.allOccupied(sub),
			}
		}
		gap, _ := geom.MaxCircularGapInPlace(sub)
		covered := len(sub) > 0
		for i := range m.perTheta {
			m.perTheta[i].FullView = covered && gap <= m.twoThetas[i]
		}
		fn(pi, MultiReport{
			NumCovering: len(sub),
			MaxGap:      gap,
			PerTheta:    m.perTheta,
		})
	}
}
