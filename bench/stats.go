package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample by linear interpolation between closest ranks; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of an unsorted sample.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.5)
}

// slice is what one timed slice of one workload produced.
type slice struct {
	// factor is how much slower than the reference machine this one ran
	// around the slice (calib.go); 0 means not calibrated and counts as 1.
	factor    float64
	seconds   float64   // wall time the slice actually ran
	latencies []float64 // per-op latency in ms, in completion order per client
	failed    int       // ops that errored, were refused, or answered wrongly
}

// sliceSummary is the wall-clock view of a workload's timed slices. qps, p50
// and p95 are medians over slices of each slice's own figure at the reference
// machine speed, so neither a slow slice nor a slow minute moves them; the
// raw figures and the pooled p99 are kept for the record.
type sliceSummary struct {
	qps, p50ms, p95ms      float64 // calibrated
	rawQPS, rawP50, rawP95 float64 // as the clock read
	p99ms                  float64 // raw, pooled over slices
	factor                 float64 // median machine factor
	samples                int     // pooled sample count
}

// summarize reduces timed slices to the end-to-end wall-clock metrics.
func summarize(slices []slice) sliceSummary {
	var out sliceSummary
	var rates, p50s, p95s, rawRates, rawP50s, rawP95s, factors, pooled []float64
	for _, s := range slices {
		if s.seconds <= 0 || len(s.latencies) == 0 {
			continue
		}
		f := s.factor
		if f == 0 {
			f = 1
		}
		lat := sortedCopy(s.latencies)
		rate, p50, p95 := float64(len(lat))/s.seconds, percentile(lat, 0.5), percentile(lat, 0.95)
		rawRates, rawP50s, rawP95s = append(rawRates, rate), append(rawP50s, p50), append(rawP95s, p95)
		rates, p50s, p95s = append(rates, rate*f), append(p50s, p50/f), append(p95s, p95/f)
		factors = append(factors, f)
		pooled = append(pooled, lat...)
	}
	sort.Float64s(pooled)
	out.qps, out.p50ms, out.p95ms = median(rates), median(p50s), median(p95s)
	out.rawQPS, out.rawP50, out.rawP95 = median(rawRates), median(rawP50s), median(rawP95s)
	out.p99ms, out.factor, out.samples = percentile(pooled, 0.99), median(factors), len(pooled)
	return out
}

// qerror is max(est/act, act/est) with both sides floored at one page.
func qerror(est, act float64) float64 {
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}
