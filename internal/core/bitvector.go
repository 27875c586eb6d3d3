package core

import (
	"math/bits"

	"pagefeedback/internal/tuple"
)

// BitVectorFilter is the derived semi-join predicate of §IV (Fig 5). During
// the build phase of a Hash Join (or while the Sort feeding a Merge Join
// drains its input), the outer relation's join-column values are hashed into
// the filter. During the probe-side scan — which runs inside the storage
// engine and therefore sees PIDs — MayContain acts as the predicate
// Satisfies(R2, PID, Join-Pred) needed for distinct page counting.
//
// With at least as many bits as distinct outer join values there are no
// collisions and the resulting page count is exact; fewer bits can only
// overestimate (never underestimate), because a set bit can spuriously admit
// an inner row but never reject a matching one.
//
// Integer values are bucketed by value mod bits — the classic bit-vector
// construction of DeWitt & Gerber [7]. For the dense integer join domains of
// the paper's workloads (and most surrogate keys) this mapping is injective
// whenever the value range does not exceed the filter width, which is what
// makes the §IV exactness guarantee ("at least as many bits as distinct
// values") achievable; a scrambling hash would suffer birthday collisions
// at any width. Strings are hashed first.
//
// When the width is a power of two, value mod width is taken as a mask of
// the low bits: the same bucket without a 64-bit divide. A hash join's own
// probe filter is sized to a power of two for exactly this reason; the join
// monitor's width (2 bits per inner row) usually is not, and keeps the mod.
type BitVectorFilter struct {
	words   []uint64
	numBits uint64
	mask    uint64 // numBits-1 when numBits is a power of two, else 0
	added   int64
}

// bucket maps a value onto [0, numBits).
func (bv *BitVectorFilter) bucket(v tuple.Value) uint64 {
	switch v.Kind {
	case tuple.KindInt, tuple.KindDate:
		return bv.slot(uint64(v.Int))
	default:
		return bv.slot(HashValue(v))
	}
}

// slot reduces h mod numBits, by the mask when the width is a power of two.
func (bv *BitVectorFilter) slot(h uint64) uint64 {
	if bv.mask != 0 {
		return h & bv.mask
	}
	return h % bv.numBits
}

// NewBitVectorFilter creates a filter with the given number of bits
// (rounded up to a multiple of 64; minimum 64).
func NewBitVectorFilter(numBits uint64) *BitVectorFilter {
	if numBits < 64 {
		numBits = 64
	}
	bv := &BitVectorFilter{
		words:   make([]uint64, (numBits+63)/64),
		numBits: numBits,
	}
	if numBits&(numBits-1) == 0 {
		bv.mask = numBits - 1
	}
	return bv
}

// Add hashes a join-column value of the outer relation into the filter.
func (bv *BitVectorFilter) Add(v tuple.Value) {
	h := bv.bucket(v)
	bv.words[h/64] |= 1 << (h % 64)
	bv.added++
}

// Merge folds a sibling filter built over another part of the outer
// relation into bv by bitwise union. A bit is set iff some outer row's join
// value bucketed there, so the union is exactly the filter a serial build
// produces regardless of how the build input was split.
//
// dbvet:commutative — bitwise OR and addition; order is irrelevant.
func (bv *BitVectorFilter) Merge(o *BitVectorFilter) {
	if bv.numBits != o.numBits {
		panic("core: merging BitVectorFilters with different widths")
	}
	for i, w := range o.words {
		bv.words[i] |= w
	}
	bv.added += o.added
}

// MayContain reports whether v's bit is set: false means no outer row can
// join with v (no false negatives; possible false positives).
func (bv *BitVectorFilter) MayContain(v tuple.Value) bool {
	return bv.isSet(bv.bucket(v))
}

// MayContainInt is MayContain for the numeric payload of an INT or DATE
// value read in place from an encoded row.
func (bv *BitVectorFilter) MayContainInt(n int64) bool {
	return bv.isSet(bv.slot(uint64(n)))
}

// MayContainBytes is MayContain for the bytes of a VARCHAR value read in
// place from an encoded row: it hashes exactly as HashValue does and
// allocates nothing.
func (bv *BitVectorFilter) MayContainBytes(b []byte) bool {
	return bv.isSet(bv.slot(hashBytes(b)))
}

func (bv *BitVectorFilter) isSet(h uint64) bool { return bv.words[h/64]&(1<<(h%64)) != 0 }

// Bits returns the filter width in bits.
func (bv *BitVectorFilter) Bits() uint64 { return bv.numBits }

// Added returns the number of Add calls (outer rows hashed).
func (bv *BitVectorFilter) Added() int64 { return bv.added }

// SetBits returns the number of set bits (diagnostics: the collision rate
// grows with the fill ratio SetBits/Bits).
func (bv *BitVectorFilter) SetBits() uint64 {
	var n uint64
	for _, w := range bv.words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}
