// Package exec (fixture import path "membudget") exercises the
// memory-budget analyzer on stub operators: build-side state that grows per
// input row must charge MemTracker first on every path.
package exec

// MemTracker is the stub budget; the analyzer matches it by type name.
type MemTracker struct{ used int64 }

// Grow charges n bytes.
func (t *MemTracker) Grow(n int64) error {
	t.used += n
	return nil
}

// Row is the stub row type the analyzer matches by name.
type Row []int64

// Clone copies the row out of page memory.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Batch is the stub batch the analyzer matches by name: its fields are
// per-batch arenas, growth sites exactly like row buffers.
type Batch struct {
	Rows []Row
	Sel  []int
}

type buildOp struct {
	mem   *MemTracker
	table map[string][]Row
	buf   []Row
	seen  map[int]bool
}

// insertCharged is the sanctioned shape: Grow guards the insert.
func (o *buildOp) insertCharged(k string, r Row) error {
	if err := o.mem.Grow(int64(len(r))); err != nil {
		return err
	}
	o.table[k] = append(o.table[k], r)
	return nil
}

func (o *buildOp) insertUncharged(k string, r Row) {
	o.table[k] = append(o.table[k], r) // want `map field table grows without charging`
}

// charge is a module helper; the one-level summaries see through it.
func (o *buildOp) charge(n int64) error { return o.mem.Grow(n) }

func (o *buildOp) appendViaHelper(r Row) error {
	if err := o.charge(int64(len(r))); err != nil {
		return err
	}
	o.buf = append(o.buf, r)
	return nil
}

func (o *buildOp) appendUncharged(r Row) {
	o.buf = append(o.buf, r) // want `row-buffer field buf grows without charging`
}

// reuseIsFree recycles already-charged capacity.
func (o *buildOp) reuseIsFree(r Row) {
	o.buf = append(o.buf[:0], r)
}

func (o *buildOp) cloneUncharged(rows []Row, r Row) []Row {
	rows = append(rows, r.Clone()) // want `cloned-row buffer grows without charging`
	return rows
}

// bookkeeping maps with scalar values are bounded by request count, not row
// count: exempt.
func (o *buildOp) bookkeeping(i int) {
	o.seen[i] = true
}

// conditionalCharge only charges on one path; the must-analysis flags the
// uncovered one.
func (o *buildOp) conditionalCharge(k string, r Row, ok bool) {
	if ok {
		_ = o.mem.Grow(1)
	}
	o.table[k] = append(o.table[k], r) // want `map field table grows without charging`
}

// batchNoReset grows a batch arena with neither a charge nor a reset.
func (o *buildOp) batchNoReset(b *Batch, r Row) {
	b.Sel = append(b.Sel, 1)   // want `batch field Sel grows without charging`
	b.Rows = append(b.Rows, r) // want `row-buffer field Rows grows without charging`
}

// batchHighWater is the sanctioned batch shape: reset to length zero, then
// append into capacity retained from earlier calls.
func (o *buildOp) batchHighWater(b *Batch, rows []Row) {
	b.Sel = b.Sel[:0]
	b.Rows = b.Rows[:0]
	for i, r := range rows {
		b.Sel = append(b.Sel, i)
		b.Rows = append(b.Rows, r)
	}
}

// resetDominates: an earlier x.f = x.f[:0] makes the append high-water
// reuse of charged capacity, same as the in-statement append(x.f[:0], ...).
func (o *buildOp) resetDominates(rows []Row) {
	o.buf = o.buf[:0]
	for _, r := range rows {
		o.buf = append(o.buf, r)
	}
}

// resetOnOnePath does not dominate the append: flagged.
func (o *buildOp) resetOnOnePath(r Row, ok bool) {
	if ok {
		o.buf = o.buf[:0]
	}
	o.buf = append(o.buf, r) // want `row-buffer field buf grows without charging`
}

// resetKilled: reassigning the field discards the reset's guarantee.
func (o *buildOp) resetKilled(r Row, other []Row) {
	o.buf = o.buf[:0]
	o.buf = other
	o.buf = append(o.buf, r) // want `row-buffer field buf grows without charging`
}

// cloneAfterReset: a clone is new memory wherever it lands; resets never
// exempt it.
func (o *buildOp) cloneAfterReset(r Row) {
	o.buf = o.buf[:0]
	o.buf = append(o.buf, r.Clone()) // want `cloned-row buffer grows without charging`
}

// Value is the stub column value; a make of []Value sized at run time is a
// value slab, fresh memory that must be charged first.
type Value struct{ n int64 }

// copyChargedFirst is the sanctioned batch copy: charge the rows, then
// allocate the one slab they are copied into.
func copyChargedFirst(mem *MemTracker, dst [][]Value, rows [][]Value) ([][]Value, error) {
	width := 0
	for _, r := range rows {
		width += len(r)
	}
	if err := mem.Grow(int64(width)); err != nil {
		return dst, err
	}
	vals := make([]Value, width)
	lo := 0
	for _, r := range rows {
		hi := lo + copy(vals[lo:], r)
		dst = append(dst, vals[lo:hi:hi])
		lo = hi
	}
	return dst, nil
}

// copyChargedAfter copies before it charges: the slab is allocated on a path
// no charge precedes, so it is flagged even though Grow runs later.
func copyChargedAfter(mem *MemTracker, dst [][]Value, rows [][]Value) ([][]Value, error) {
	width := 0
	for _, r := range rows {
		width += len(r)
	}
	vals := make([]Value, width) // want `value slab grows without charging`
	lo := 0
	for _, r := range rows {
		hi := lo + copy(vals[lo:], r)
		dst = append(dst, vals[lo:hi:hi])
		lo = hi
	}
	return dst, mem.Grow(int64(width))
}

// fixedScratch is sized by a constant: bounded scratch, not row memory.
func fixedScratch() []Value {
	buf := make([]Value, 8)
	return buf
}
