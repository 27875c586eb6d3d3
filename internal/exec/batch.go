package exec

import "pagefeedback/internal/tuple"

// BatchSize caps how many rows an operator hands its parent per NextBatch
// call. Scans ignore it — their natural batch is the data page (§III-B's
// grouped page access) — but seek paths, sorts and aggregates cut batches at
// this size.
const BatchSize = 1024

// Batch is the unit in which rows move between operators: a slice of rows
// plus a selection vector of the indices that are live. Operators filter by
// compacting Sel instead of materializing survivors, so a selective filter
// over a page batch touches no row memory at all.
//
// A filled batch — Rows, Sel, and the rows themselves — is valid only until
// the next NextBatch call on the same operator. Consumers that keep rows
// (sorts, hash builds, the result sink) copy them out a batch at a time with
// retainRows.
type Batch struct {
	Rows []tuple.Row
	Sel  []int
	// Max is the consumer's row cap for the call: the most rows it will
	// take, 0 meaning BatchSize. LIMIT sets it. Operators that produce row by
	// row — sorts, group aggregates, merge and index nested-loops joins,
	// covering scans, index intersections — stop at it, so a LIMIT over them
	// does no work past its last row. Scans and the hash-join probe deliver
	// their page, the index seek its BatchSize, and the consumer truncates.
	Max int
}

// Len returns the number of live rows in the batch.
func (b *Batch) Len() int { return len(b.Sel) }

// limit returns how many rows a row-by-row producer may put in b.
func (b *Batch) limit() int {
	if b.Max > 0 && b.Max < BatchSize {
		return b.Max
	}
	return BatchSize
}

// identSel resets sel to the identity selection [0..n) and returns it.
// Operators that emit fully dense batches (every row live) use it to rebuild
// the caller's selection vector in place.
func identSel(sel []int, n int) []int {
	sel = sel[:0]
	for i := 0; i < n; i++ {
		sel = append(sel, i)
	}
	return sel
}

// sliceRows rebuilds rows as views of vals cut at bounds (prefix lengths,
// one per row). Operators that accumulate a batch's output in a reused value
// arena call it once the arena has stopped growing, since appends may move
// it. The arena is transient, batch-bounded memory recycled from length zero
// on every call, so it is not charged to the memory budget.
func sliceRows(rows []tuple.Row, vals []tuple.Value, bounds []int) []tuple.Row {
	rows = rows[:0]
	lo := 0
	for _, hi := range bounds {
		rows = append(rows, tuple.Row(vals[lo:hi:hi]))
		lo = hi
	}
	return rows
}

// emitRows hands b the next rows of a materialized buffer, starting at *pos
// and stopping at b's cap; it returns how many it handed over.
func emitRows(b *Batch, rows []tuple.Row, pos *int) int {
	n := min(len(rows)-*pos, b.limit())
	if n <= 0 {
		return 0
	}
	b.Rows = rows[*pos : *pos+n]
	b.Sel = identSel(b.Sel, n)
	*pos += n
	return n
}

// drain pulls every batch from op, charging CPU for its live rows, and calls
// f on each batch in order — the input loop of the blocking operators. It
// stops at the first error from op or f.
func drain(ctx *Context, op Operator, f func(b *Batch) error) error {
	var b Batch
	for {
		n, err := op.NextBatch(&b)
		if err != nil || n == 0 {
			return err
		}
		ctx.touch(int64(n))
		if err := f(&b); err != nil {
			return err
		}
	}
}

// retainRows copies b's live rows out of the operator-owned batch into
// memory that outlives it, and appends a view of each copy to dst in
// selection order. It charges mem the rows' rowMemSize before it allocates,
// then makes one value slab of exactly the rows' total width, so retaining a
// batch costs one allocation however many rows it holds. Each view has
// cap == len: appending to a retained row can never write into its neighbour.
func retainRows(mem *MemTracker, dst []tuple.Row, b *Batch) ([]tuple.Row, error) {
	width := 0
	var bytes int64
	for _, i := range b.Sel {
		width += len(b.Rows[i])
		bytes += rowMemSize(b.Rows[i])
	}
	if err := mem.Grow(bytes); err != nil {
		return dst, err
	}
	vals := make([]tuple.Value, width)
	lo := 0
	for _, i := range b.Sel {
		hi := lo + copy(vals[lo:], b.Rows[i])
		dst = append(dst, tuple.Row(vals[lo:hi:hi]))
		lo = hi
	}
	return dst, nil
}

// rowCursor steps through a child's batches one row at a time, for the
// operators that consume an input row by row: both inputs of the merge join
// and the outer of the index nested-loops join. It pulls the next batch only
// once the current one is used up, so the child's current page is always the
// current row's page — the invariant the merge join's late match relies on —
// and the current row stays valid until the next call to next.
type rowCursor struct {
	in   Operator
	b    Batch
	pos  int
	done bool
}

// open opens the child and rewinds the cursor.
func (c *rowCursor) open() error {
	c.b.Sel = c.b.Sel[:0]
	c.pos, c.done = 0, false
	return c.in.Open()
}

// next advances to the following row; it returns nil at end of input, and
// never pulls the child again after that.
func (c *rowCursor) next() (tuple.Row, error) {
	c.pos++
	for c.pos >= len(c.b.Sel) {
		if c.done {
			return nil, nil
		}
		n, err := c.in.NextBatch(&c.b)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			c.done = true
			c.b.Sel = c.b.Sel[:0]
		}
		c.pos = 0
	}
	return c.b.Rows[c.b.Sel[c.pos]], nil
}
