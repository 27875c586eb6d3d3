package metrics

import (
	"math/bits"
	"sync/atomic"
)

// The histogram is log-linear: values are bucketed by octave (power of
// two), each octave split into subBuckets linear sub-buckets, which
// bounds the relative error of any reconstructed value at 1/subBuckets
// (25%) while keeping the bucket array small and fixed-size. Bucket 0
// holds non-positive values; octave o >= 2 has sub-bucket width
// 2^(o-2); octaves 0 and 1 are narrower than four values and use width
// 1. Two histograms merge by plain bucket-wise addition.
const (
	subBuckets = 4
	// numBuckets covers bucket 0 plus octaves 0..62 (all positive int64).
	numBuckets = 1 + 63*subBuckets
)

// bucketFor maps a value to its bucket index.
func bucketFor(v int64) int {
	if v <= 0 {
		return 0
	}
	o := bits.Len64(uint64(v)) - 1
	width := int64(1)
	if o >= 2 {
		width = 1 << (o - 2)
	}
	sub := (v - 1<<o) / width
	return 1 + o*subBuckets + int(sub)
}

// BucketBounds returns the inclusive value range of bucket i.
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	i--
	o := i / subBuckets
	sub := i % subBuckets
	base := int64(1) << o
	width := int64(1)
	if o >= 2 {
		width = base >> 2
	}
	lo = base + int64(sub)*width
	return lo, lo + width - 1
}

// Histogram is the shared, concurrently writable form. Observe is a few
// atomic adds; there is no lock anywhere.
type Histogram struct {
	name    string
	help    string
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketFor(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Merge folds another histogram's counts into h, bucket-wise. Both sides
// may be observed concurrently; each bucket moves atomically.
//
// dbvet:commutative — bucket-wise addition; any merge order or grouping
// yields the same totals (see TestShardMergeCommutativeAssociative).
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Snapshot copies the current state. Concurrent observations may land in
// either side of the copy; each bucket is read atomically.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, Bucket{Index: i, Count: n})
		}
	}
	return s
}

// Bucket is one non-empty histogram bucket.
type Bucket struct {
	Index int
	Count int64
}

// HistSnapshot is a frozen histogram: total count, total sum, and the
// non-empty buckets in index order.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []Bucket
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1),
// reconstructed from bucket upper bounds; the result is exact to within
// the bucket's 25% relative width. Returns 0 for an empty histogram.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen > rank {
			_, hi := BucketBounds(b.Index)
			return hi
		}
	}
	_, hi := BucketBounds(s.Buckets[len(s.Buckets)-1].Index)
	return hi
}

// Mean returns the exact arithmetic mean (sums are tracked exactly), or
// 0 for an empty histogram.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
