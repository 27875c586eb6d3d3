package core

import (
	"math"
	"sort"
	"sync"

	"pagefeedback/internal/tuple"
)

// DPCObservation is one fed-back fact about a column: over the value range
// [Lo, Hi], Rows rows qualified and they lived on DPC distinct pages.
type DPCObservation struct {
	Lo, Hi int64 // inclusive value bounds (ints and dates share int64)
	Rows   int64
	DPC    int64
}

// density is the observation's pages-per-row — the column's local
// clustering signal (1/rowsPerPage when perfectly clustered, ~1 when every
// row sits on its own page).
func (o DPCObservation) density() float64 {
	if o.Rows == 0 {
		return 0
	}
	return float64(o.DPC) / float64(o.Rows)
}

// DPCHistogram is a self-tuning histogram of distinct page counts for one
// (table, column), built purely from execution feedback in the manner of
// self-tuning cardinality histograms ([1], [16]) — the §VI direction the
// paper leaves as future work.
//
// Page counts are not additive across value ranges (two ranges can share
// pages, §VI), so the histogram does not sum buckets. Instead it learns the
// column's local clustering density (distinct pages per qualifying row) and
// estimates a new range's DPC as estimatedRows × interpolated density,
// clamped to the feasible [rows/rowsPerPage, min(rows, tablePages)] band.
type DPCHistogram struct {
	mu  sync.RWMutex
	obs []DPCObservation
}

// NewDPCHistogram creates an empty histogram.
func NewDPCHistogram() *DPCHistogram { return &DPCHistogram{} }

// maxObservations bounds memory; oldest observations are dropped first.
const maxObservations = 256

// Add records one observation, reporting whether it was kept (empty or
// inverted ranges are not).
func (h *DPCHistogram) Add(o DPCObservation) bool {
	if o.Rows <= 0 || o.DPC <= 0 || o.Hi < o.Lo {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.obs = append(h.obs, o)
	if len(h.obs) > maxObservations {
		h.obs = h.obs[len(h.obs)-maxObservations:]
	}
	return true
}

// Len returns the number of stored observations.
func (h *DPCHistogram) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.obs)
}

// EstimateRange estimates DPC for a predicate selecting estRows rows with
// column values in [lo, hi] (math.MinInt64/MaxInt64 for open ends). ok is
// false when no overlapping observation exists — the caller falls back to
// the analytical model.
func (h *DPCHistogram) EstimateRange(lo, hi int64, estRows, rowsPerPage float64, tablePages int64) (float64, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.obs) == 0 || estRows <= 0 {
		return 0, false
	}
	// Weight each overlapping observation by its overlap fraction with the
	// query range; nearest observation wins when nothing overlaps but the
	// column has history (clustering character is a column-level property).
	var wSum, dSum float64
	for _, o := range h.obs {
		ov := overlap(lo, hi, o.Lo, o.Hi)
		if ov <= 0 {
			continue
		}
		w := ov * float64(o.Rows)
		dSum += w * o.density()
		wSum += w
	}
	if wSum == 0 {
		// No overlap: use the density of the nearest observation.
		best := -1
		bestDist := int64(math.MaxInt64)
		for i, o := range h.obs {
			d := rangeDistance(lo, hi, o.Lo, o.Hi)
			if d < bestDist {
				bestDist = d
				best = i
			}
		}
		if best < 0 {
			return 0, false
		}
		dSum, wSum = h.obs[best].density(), 1
	}
	est := estRows * (dSum / wSum)
	// Clamp to the feasible band of Fig 10's bounds.
	lb := estRows / math.Max(rowsPerPage, 1)
	ub := math.Min(estRows, float64(tablePages))
	return math.Max(lb, math.Min(est, ub)), true
}

// overlap returns the fraction of [bLo,bHi] covered by [aLo,aHi]. All
// arithmetic is in float64: open-ended ranges carry MinInt64/MaxInt64
// sentinels whose int64 differences would overflow.
func overlap(aLo, aHi, bLo, bHi int64) float64 {
	lo, hi := maxI(aLo, bLo), minI(aHi, bHi)
	if hi < lo {
		return 0
	}
	width := float64(bHi) - float64(bLo) + 1
	return (float64(hi) - float64(lo) + 1) / width
}

// rangeDistance is the gap between two inclusive ranges (0 if they touch).
func rangeDistance(aLo, aHi, bLo, bHi int64) int64 {
	if aHi < bLo {
		return bLo - aHi
	}
	if bHi < aLo {
		return aLo - bHi
	}
	return 0
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Observations returns a snapshot sorted by Lo (diagnostics and tests).
func (h *DPCHistogram) Observations() []DPCObservation {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := append([]DPCObservation(nil), h.obs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// ObservationFromAtomRange derives the (Lo, Hi) value bounds of a
// single-column predicate over an integer/date domain, for recording a
// feedback observation. ok is false for predicates without extractable
// numeric bounds (strings, Ne).
func ObservationFromAtomRange(op string, v, v2 tuple.Value) (lo, hi int64, ok bool) {
	if v.Kind == tuple.KindString {
		return 0, 0, false
	}
	switch op {
	case "=":
		return v.Int, v.Int, true
	case "<":
		return math.MinInt64, v.Int - 1, true
	case "<=":
		return math.MinInt64, v.Int, true
	case ">":
		return v.Int + 1, math.MaxInt64, true
	case ">=":
		return v.Int, math.MaxInt64, true
	case "BETWEEN":
		return v.Int, v2.Int, true
	default:
		return 0, 0, false
	}
}
