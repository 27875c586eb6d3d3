package core

import (
	"fmt"
	"math"

	"pagefeedback/internal/storage"
)

// DPSample estimates the distinct page count during a scan plan by Bernoulli
// page sampling (Fig 4): each page is chosen with probability f, the
// monitored predicate is evaluated — with short-circuiting turned off if
// necessary — only for rows on sampled pages, and the final count is scaled
// by 1/f.
//
// Properties (§III-B): the estimator is unbiased, obeys Chernoff tail
// bounds, needs no memory beyond one counter, and bounds the cost of
// disabling short-circuiting to the sampled fraction of rows.
//
// Page membership is a pure function of (seed, pid) — a salted hash compared
// against a fixed threshold — rather than a sequential pseudo-random stream.
// That keeps the draw Bernoulli(f) per page while making the sample set
// independent of the order pages are visited in, so a scan split into
// page-disjoint partitions samples exactly the pages a serial scan would and
// partition results can be merged without changing the estimate.
//
// Usage per scanned row:
//
//	if s.StartRow(pid) {        // true iff pid is in the sample
//	    s.Observe(fullPredicateResult)
//	}
//	...
//	est := s.Estimate()
type DPSample struct {
	f        float64
	seedMix  uint64 // hashed seed salting the per-page membership draw
	thresh   uint64 // f scaled to [0, 2^53]; hash>>11 < thresh ⇔ sampled
	count    int64
	sampled  int64 // pages sampled
	pages    int64 // pages seen
	curPID   storage.PageID
	curIn    bool
	curHit   bool
	havePage bool
	finished bool
}

// NewDPSample creates a sampler with sampling fraction f in (0, 1] and a
// deterministic seed (experiments are reproducible).
func NewDPSample(f float64, seed int64) *DPSample {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("core: sampling fraction %v out of (0,1]", f))
	}
	return &DPSample{
		f:       f,
		seedMix: hash64(uint64(seed)),
		thresh:  uint64(f * (1 << 53)),
	}
}

// Fraction returns the sampling fraction.
func (s *DPSample) Fraction() float64 { return s.f }

// Fork returns a fresh sampler with no observations that draws the
// identical page sample (same fraction and seed). Partition-parallel scans
// give each worker a fork; because membership is order-independent, the
// forks' merged counts equal a serial run's.
func (s *DPSample) Fork() *DPSample {
	return &DPSample{f: s.f, seedMix: s.seedMix, thresh: s.thresh}
}

// InSample reports whether pid belongs to the Bernoulli sample. The decision
// depends only on the seed and the pid, never on visit order or on what the
// sampler has observed, so a scan can ask before it visits the page — and
// skip materializing rows no sampled monitor will look at.
func (s *DPSample) InSample(pid storage.PageID) bool {
	if s.f >= 1 {
		return true
	}
	return hash64(s.seedMix+uint64(pid)*0x9E3779B97F4A7C15)>>11 < s.thresh
}

// StartRow declares the page of the next scanned row and reports whether
// that page is part of the sample — i.e., whether the caller must evaluate
// the monitored predicate (turning off short-circuiting if needed) for this
// row. The page membership decision is made once, when the scan first
// enters the page (step 3 of Fig 4).
func (s *DPSample) StartRow(pid storage.PageID) bool {
	if s.finished {
		panic("core: StartRow after Finish")
	}
	if !s.havePage || pid != s.curPID {
		s.closePage()
		s.curPID = pid
		s.havePage = true
		s.pages++
		s.curIn = s.InSample(pid)
		s.curHit = false
		if s.curIn {
			s.sampled++
		}
	}
	return s.curIn
}

// Observe records the predicate result for a row on a sampled page. A page
// counts once no matter how many of its rows qualify (step 5 of Fig 4).
func (s *DPSample) Observe(satisfies bool) {
	if satisfies {
		s.curHit = true
	}
}

// ObserveAtPage records a qualifying row on page pid after the fact, but
// only while pid is still the sampler's current page. It supports the
// partial bit-vector filter of §IV: a Merge Join discovers that the inner
// scan's most recent row matches an outer value that entered the filter
// after the row streamed by. Because the merge join's inner lookahead is
// always the last row pulled from the scan, its page is always still
// current; a stale pid returns false and changes nothing.
func (s *DPSample) ObserveAtPage(pid storage.PageID) bool {
	if s.finished || !s.havePage || s.curPID != pid {
		return false
	}
	if s.curIn {
		s.curHit = true
	}
	return true
}

func (s *DPSample) closePage() {
	if s.havePage && s.curIn && s.curHit {
		s.count++
	}
}

// Finish closes the last page.
func (s *DPSample) Finish() {
	if !s.finished {
		s.closePage()
		s.finished = true
	}
}

// Merge folds a sibling sampler that observed a page-disjoint partition of
// the same scan into s, finishing both. Because page membership is a pure
// function of (seed, pid), the union of the partitions' samples is exactly
// the sample a serial scan draws, so the merged counts — and therefore the
// estimate — are identical to serial execution.
//
// dbvet:commutative — the merge sums partition totals; order is irrelevant.
func (s *DPSample) Merge(o *DPSample) {
	if s.f != o.f || s.seedMix != o.seedMix {
		panic("core: merging DPSamples with different fraction or seed")
	}
	s.Finish()
	o.Finish()
	s.count += o.count
	s.sampled += o.sampled
	s.pages += o.pages
}

// Estimate returns PageCount / f (step 7 of Fig 4). It finishes the sampler.
func (s *DPSample) Estimate() float64 {
	s.Finish()
	return float64(s.count) / s.f
}

// EstimateInt returns the estimate rounded to a page count.
func (s *DPSample) EstimateInt() int64 { return int64(math.Round(s.Estimate())) }

// SampledPages returns how many pages were in the sample.
func (s *DPSample) SampledPages() int64 { return s.sampled }

// PagesSeen returns how many pages the scan visited.
func (s *DPSample) PagesSeen() int64 { return s.pages }
