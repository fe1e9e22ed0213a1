// Package core implements the paper's contribution: the full-view
// coverage test (Definition 1), the geometric necessary condition
// (Section III, 2θ-sectors), the geometric sufficient condition
// (Section IV, θ-sectors), classic k-coverage, and region-level coverage
// over the dense grid that stands in for the whole operational area.
package core

import (
	"errors"
	"fmt"
	"math"

	"fullview/internal/geom"
	"fullview/internal/sensor"
	"fullview/internal/spatial"
)

// ErrBadTheta reports an effective angle outside (0, π].
var ErrBadTheta = errors.New("core: effective angle θ must be in (0, π]")

// Checker evaluates coverage predicates for one deployed network and one
// effective angle θ. It reuses internal buffers across calls, so a
// Checker must not be used from multiple goroutines concurrently; use
// Clone to derive one per worker instead (cloning shares the immutable
// spatial index and costs one scratch-buffer allocation).
type Checker struct {
	index      spatial.Source
	theta      float64
	necessary  occupancy // anchored 2θ partition, O(m) evaluator
	sufficient occupancy // anchored θ partition
	dirBuf     []float64
	batch      spatial.BatchScratch // SurveyBatch gather scratch
	gaps       geom.GapScratch      // full-view decision scratch
}

// NewChecker builds a Checker for the network with effective angle
// theta ∈ (0, π].
func NewChecker(net *sensor.Network, theta float64) (*Checker, error) {
	return newChecker(spatial.NewIndex(net), theta)
}

// NewCheckerFromIndex builds a Checker sharing an existing immutable
// spatial index. Use this to amortise index construction across several
// checkers (e.g. different θ on the same deployment).
func NewCheckerFromIndex(ix *spatial.Index, theta float64) (*Checker, error) {
	return newChecker(ix, theta)
}

// NewCheckerFromSource builds a Checker over any spatial.Source — an
// immutable Index, a MutableIndex absorbing churn, or a pinned View.
// Verdicts against a MutableIndex reflect whatever version each point
// evaluation observes; pin a Snapshot first when a whole batch must see
// one consistent version.
func NewCheckerFromSource(src spatial.Source, theta float64) (*Checker, error) {
	return newChecker(src, theta)
}

func newChecker(ix spatial.Source, theta float64) (*Checker, error) {
	if !(theta > 0) || theta > math.Pi {
		return nil, fmt.Errorf("%w: got %v", ErrBadTheta, theta)
	}
	necessary, err := newOccupancy(2 * theta)
	if err != nil {
		return nil, fmt.Errorf("core: necessary partition: %w", err)
	}
	sufficient, err := newOccupancy(theta)
	if err != nil {
		return nil, fmt.Errorf("core: sufficient partition: %w", err)
	}
	return &Checker{
		index:      ix,
		theta:      theta,
		necessary:  necessary,
		sufficient: sufficient,
		dirBuf:     make([]float64, 0, 64),
	}, nil
}

// Clone returns an independent Checker over the same network and
// effective angle: the immutable spatial index and sector partitions
// are shared, the mutable scratch buffers are private. Use it to give
// every goroutine of a parallel sweep its own Checker.
func (c *Checker) Clone() *Checker {
	clone := *c
	clone.necessary = c.necessary.clone()
	clone.sufficient = c.sufficient.clone()
	clone.dirBuf = make([]float64, 0, cap(c.dirBuf))
	clone.batch = spatial.BatchScratch{}
	return &clone
}

// Theta returns the effective angle θ.
func (c *Checker) Theta() float64 { return c.theta }

// Index returns the underlying spatial source.
func (c *Checker) Index() spatial.Source { return c.index }

// viewedDirections fills the scratch buffer with the viewed directions of
// all cameras covering p.
func (c *Checker) viewedDirections(p geom.Vec) []float64 {
	c.dirBuf = c.index.AppendViewedDirections(c.dirBuf[:0], p)
	return c.dirBuf
}

// FullViewCovered reports whether point p is full-view covered
// (Definition 1): for every facing direction d⃗ there is a covering
// camera S with ∠(d⃗, PS) ≤ θ. Equivalently, the maximum circular gap
// between the viewed directions of the covering cameras is at most 2θ.
func (c *Checker) FullViewCovered(p geom.Vec) bool {
	return geom.MaxGapAtMost(c.viewedDirections(p), 2*c.theta, &c.gaps)
}

// UnsafeDirection returns a facing direction witnessing that p is not
// full-view covered (the bisector of the widest viewed-direction gap),
// or ok == false when p is full-view covered.
func (c *Checker) UnsafeDirection(p geom.Vec) (dir float64, ok bool) {
	dirs := c.viewedDirections(p)
	gap, bisector := geom.MaxCircularGapInPlace(dirs)
	if len(dirs) > 0 && gap <= 2*c.theta {
		return 0, false
	}
	return bisector, true
}

// MeetsNecessary reports whether p satisfies the paper's geometric
// necessary condition for full-view coverage: every sector of the
// anchored 2θ partition (including the re-centred remainder sector)
// contains the viewed direction of at least one covering camera.
func (c *Checker) MeetsNecessary(p geom.Vec) bool {
	return c.necessary.allOccupied(c.viewedDirections(p))
}

// MeetsSufficient reports whether p satisfies the paper's geometric
// sufficient condition: every sector of the anchored θ partition
// contains the viewed direction of at least one covering camera. When it
// holds, p is guaranteed full-view covered.
func (c *Checker) MeetsSufficient(p geom.Vec) bool {
	return c.sufficient.allOccupied(c.viewedDirections(p))
}

// CoverageCount returns the number of cameras covering p (its
// k-coverage multiplicity).
func (c *Checker) CoverageCount(p geom.Vec) int {
	return c.index.CountCovering(p)
}

// KCovered reports whether at least k cameras cover p. KCovered(p, 1) is
// traditional 1-coverage.
func (c *Checker) KCovered(p geom.Vec, k int) bool {
	if k <= 0 {
		return true
	}
	return c.index.CountCovering(p) >= k
}

// sectorsAllOccupied reports whether every sector contains at least one
// of the directions. It is the O(sectors·dirs) reference implementation
// of occupancy.allOccupied, retained as the oracle for the randomized
// equivalence tests.
func sectorsAllOccupied(sectors []geom.Sector, dirs []float64) bool {
	for _, s := range sectors {
		occupied := false
		for _, d := range dirs {
			if s.Contains(d) {
				occupied = true
				break
			}
		}
		if !occupied {
			return false
		}
	}
	return true
}
