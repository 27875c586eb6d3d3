package core

import (
	"math"
	"sort"
	"sync"
)

// JoinDPCCurve learns, for one (inner table, join column), how the distinct
// page count of the inner fetch grows with the number of matching inner
// rows — the join-expression page-count statistic §VI calls out as
// non-trivial future work. Each execution-feedback observation contributes
// one (matching rows, DPC) point; estimates interpolate between points and
// extrapolate with the nearest point's pages-per-row density.
//
// The curve is monotone in expectation (more matching rows can only touch
// at least as many pages), so estimates are clamped to preserve
// monotonicity against noisy observations.
type JoinDPCCurve struct {
	mu  sync.RWMutex
	pts []JoinDPCPoint // sorted by Rows ascending
}

// JoinDPCPoint is one observation.
type JoinDPCPoint struct {
	Rows int64 // matching inner rows (the n of the Mackert-Lohman formula)
	DPC  int64 // observed distinct inner pages
}

// NewJoinDPCCurve creates an empty curve.
func NewJoinDPCCurve() *JoinDPCCurve { return &JoinDPCCurve{} }

// maxCurvePoints bounds memory per curve.
const maxCurvePoints = 128

// Add records one observation, reporting whether it was kept (points
// without rows or pages are not). Points with duplicate Rows keep the
// latest.
func (c *JoinDPCCurve) Add(p JoinDPCPoint) bool {
	if p.Rows <= 0 || p.DPC <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].Rows >= p.Rows })
	if i < len(c.pts) && c.pts[i].Rows == p.Rows {
		c.pts[i] = p
		return true
	}
	c.pts = append(c.pts, JoinDPCPoint{})
	copy(c.pts[i+1:], c.pts[i:])
	c.pts[i] = p
	if len(c.pts) > maxCurvePoints {
		// Thin by dropping every other interior point.
		kept := c.pts[:0]
		for j, q := range c.pts {
			if j == 0 || j == len(c.pts)-1 || j%2 == 0 {
				kept = append(kept, q)
			}
		}
		c.pts = kept
	}
	return true
}

// Len returns the number of stored points.
func (c *JoinDPCCurve) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.pts)
}

// Points returns a snapshot sorted by Rows.
func (c *JoinDPCCurve) Points() []JoinDPCPoint {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]JoinDPCPoint(nil), c.pts...)
}

// Estimate returns the interpolated DPC for the given matching-row count,
// clamped to [1, tablePages]. ok is false with no observations.
func (c *JoinDPCCurve) Estimate(rows float64, tablePages int64) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.pts) == 0 || rows <= 0 {
		return 0, false
	}
	est := c.estimateLocked(rows)
	return math.Max(1, math.Min(est, float64(tablePages))), true
}

func (c *JoinDPCCurve) estimateLocked(rows float64) float64 {
	first, last := c.pts[0], c.pts[len(c.pts)-1]
	switch {
	case rows <= float64(first.Rows):
		// Scale down with the first point's density.
		return float64(first.DPC) * rows / float64(first.Rows)
	case rows >= float64(last.Rows):
		// Extrapolate with the last point's density, never decreasing.
		d := float64(last.DPC) / float64(last.Rows)
		return float64(last.DPC) + d*(rows-float64(last.Rows))
	}
	i := sort.Search(len(c.pts), func(i int) bool { return float64(c.pts[i].Rows) >= rows })
	lo, hi := c.pts[i-1], c.pts[i]
	frac := (rows - float64(lo.Rows)) / float64(hi.Rows-lo.Rows)
	est := float64(lo.DPC) + frac*float64(hi.DPC-lo.DPC)
	// Monotonicity guard against noisy inversions.
	return math.Max(est, float64(minI(lo.DPC, hi.DPC)))
}
