package exec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// valueMap is a hash map keyed by one column value, without encoding it:
// INT and DATE values share the int64 key space (they compare by their
// numeric payload, as under tuple.EncodeKey, whose tag they share) and
// strings have their own. Values of different key spaces never match.
type valueMap[V any] struct {
	ints map[int64]V
	strs map[string]V
}

// lookup returns v's entry, or the zero V when there is none.
func (m *valueMap[V]) lookup(v tuple.Value) V {
	switch v.Kind {
	case tuple.KindInt, tuple.KindDate:
		return m.ints[v.Int]
	case tuple.KindString:
		return m.strs[v.Str]
	}
	panic(fmt.Sprintf("exec: cannot key a hash table by kind %s", v.Kind))
}

// store charges n bytes to mem, then sets v's entry to e. It is the one
// place a value map grows, so every insert is charged before it happens.
func (m *valueMap[V]) store(mem *MemTracker, n int64, v tuple.Value, e V) error {
	if err := mem.Grow(n); err != nil {
		return err
	}
	switch v.Kind {
	case tuple.KindInt, tuple.KindDate:
		if m.ints == nil {
			m.ints = make(map[int64]V)
		}
		m.ints[v.Int] = e
	case tuple.KindString:
		if m.strs == nil {
			m.strs = make(map[string]V)
		}
		m.strs[v.Str] = e
	default:
		panic(fmt.Sprintf("exec: cannot key a hash table by kind %s", v.Kind))
	}
	return nil
}

// HashJoinOp joins build (outer) and probe (inner) on equality of one column
// each. It runs in the relational engine: it never sees page ids. When a
// bit-vector filter is wired in, the build phase fills it (Fig 5), so that
// by the time the probe side's SE scan streams rows, the filter acts as the
// derived semi-join predicate for DPC monitoring.
//
// The build keeps only the build columns the plan above reads (setDemand),
// key included; the joinProbe expands a kept row to the full join schema,
// zero-valued in the columns nobody reads, so operators above see the
// schema's width.
//
// Every probe key is judged by the completed build table through one
// joinProbe, whose bit vector rejects most keys without a map lookup. When
// the probe input is a bare table scan, that probe becomes a semi-join
// predicate of the scan (§IV's derived predicate, exact rather than a bit
// vector): the scan reads each surviving cell's join key from the page bytes
// and decodes only the rows with a match.
type HashJoinOp struct {
	ctx      *Context
	build    Operator
	probe    Operator
	buildOrd int
	probeOrd int
	need     uint64 // build columns the plan above reads (builder only)
	colBuf   [8]int // backs the kept-column list of a build keeping at most 8 columns, which then allocates nothing
	schema   *tuple.Schema
	filter   *filterSink // optional; filled during build
	stats    OpStats

	table valueMap[[]tuple.Row]
	keys  joinProbe // the completed table seen from the probe side; set by Open

	// Probe state: the pulled probe batch and the joined-output arena. Both
	// are transient high-water-reuse buffers bounded by one batch — rebuilt
	// from length zero every NextBatch — so neither is charged to the memory
	// budget.
	pb        Batch
	outVals   []tuple.Value
	outBounds []int // prefix lengths into outVals, one per joined row
	outRows   []tuple.Row

	// scan is the probe input when it is a bare table scan (builder only).
	// Open pushes the completed table into it: the scan charges the probe's
	// per-row CPU and hands up only rows with a match. A parallel scan also
	// joins them in its workers (joined), so its batches are forwarded whole;
	// under a folded aggregate it ships none, and its barrier credits the
	// joined rows to this operator's ActRows.
	scan   probeHost
	joined bool
}

// probeHost is a table scan that takes a hash join's probe push-down. It
// must be called before the scan opens.
type probeHost interface {
	setProbe(p *joinProbe)
}

// joinProbe is a hash join's completed build table seen from its probe side:
// a semi-join predicate judged on the encoded cell before any decode, and the
// lookup of a decoded probe row's build rows. An INT or DATE key is tested
// against bits first, and only a key whose bit is set reaches the map, which
// stays the final arbiter; a VARCHAR key goes to the map alone. It is
// read-only once built, so parallel scan workers share it.
//
// It also owns the build rows' layout: a kept build row holds build columns
// cols only, so every reader of build rows goes through appendJoined or
// buildCol.
type joinProbe struct {
	table  *valueMap[[]tuple.Row]
	bits   core.BitVectorFilter // the table's INT/DATE keys; unused for a VARCHAR key
	schema *tuple.Schema
	ord    int        // probe column ordinal in schema
	kind   tuple.Kind // the probe column's kind
	off    int        // the key's schema.FixedOffset, or -1 when it has none
	cols   []int      // the build ordinals a kept build row holds, ascending
	width  int        // the build schema's column count
}

// probeBits is the width of a probe's bit vector over n distinct keys: the
// smallest power of two that is at least 8n and at least 64. A power of two
// buckets by mask, and 8 bits per key keep spurious hits to about one probe
// key in eight; at a few thousand keys the vector fits in L1.
func probeBits(n int) uint64 {
	if n <= 8 {
		return 64
	}
	return 1 << bits.Len64(8*uint64(n)-1)
}

// newJoinProbe makes the probe of a completed build table for probe column
// ord of schema; the table's rows hold build columns cols of a width-column
// build. For an INT or DATE key it charges mem the bit vector's bytes before
// it makes it, then sets the bit of every key the table holds.
func newJoinProbe(mem *MemTracker, table *valueMap[[]tuple.Row], schema *tuple.Schema, ord int, cols []int, width int) (joinProbe, error) {
	p := joinProbe{table: table, schema: schema, ord: ord, kind: schema.Column(ord).Kind, off: -1, cols: cols, width: width}
	if off, ok := schema.FixedOffset(ord); ok {
		p.off = off
	}
	if p.kind != tuple.KindString {
		w := probeBits(len(table.ints))
		if err := mem.Grow(int64(w / 8)); err != nil {
			return joinProbe{}, err
		}
		p.bits = *core.NewBitVectorFilter(w)
		for k := range table.ints {
			p.bits.Add(tuple.Int64(k))
		}
	}
	return p, nil
}

// matchesCell reports whether the encoded row's join key has a build match,
// looked up without allocating. A cell that is not one well-formed row is
// kept unexamined, so the decoder still rejects it and fails the scan.
func (p *joinProbe) matchesCell(cell []byte) bool {
	if !p.schema.WellFormed(cell) {
		return true
	}
	return p.matchesWellFormed(cell)
}

// matchesWellFormed is matchesCell for a cell the caller has already found
// well-formed.
func (p *joinProbe) matchesWellFormed(cell []byte) bool {
	off := p.off
	if off < 0 {
		off = p.schema.ColumnOffset(cell, p.ord)
	}
	n, str := cellKeyAt(cell, off, p.kind)
	if p.kind == tuple.KindString {
		_, found := p.table.strs[string(str)]
		return found
	}
	if !p.bits.MayContainInt(n) {
		return false
	}
	_, found := p.table.ints[n]
	return found
}

// builds returns the build rows a decoded probe row joins with.
func (p *joinProbe) builds(row tuple.Row) []tuple.Row {
	v := row[p.ord]
	if p.kind != tuple.KindString && !p.bits.MayContainInt(v.Int) {
		return nil
	}
	return p.table.lookup(v)
}

// appendJoined appends to dst the joined row of a kept build row and a probe
// row: the build schema's columns, zero-valued where the build keeps none,
// then the probe row's.
func (p *joinProbe) appendJoined(dst []tuple.Value, build, probe tuple.Row) []tuple.Value {
	n := len(dst)
	dst = slices.Grow(dst, p.width+len(probe))[:n+p.width]
	clear(dst[n:])
	for k, o := range p.cols {
		dst[n+o] = build[k]
	}
	return append(dst, probe...)
}

// buildCol reads build column ord of a kept build row: the zero Value when
// the build keeps no such column.
func (p *joinProbe) buildCol(build tuple.Row, ord int) tuple.Value {
	if k, ok := slices.BinarySearch(p.cols, ord); ok {
		return build[k]
	}
	return tuple.Value{}
}

// cellKey reads column ord of an encoded row in place — at 8·ord in the fixed
// prefix, behind the length prefixes otherwise: the numeric payload of an INT
// or DATE column, or the bytes of a VARCHAR, aliasing cell. ok is false, and
// nothing is read, when cell is not one well-formed row; the join bit-vector
// monitor reads its keys through it.
func cellKey(s *tuple.Schema, cell []byte, ord int) (n int64, str []byte, ok bool) {
	if !s.WellFormed(cell) {
		return 0, nil, false
	}
	n, str = cellKeyAt(cell, s.ColumnOffset(cell, ord), s.Column(ord).Kind)
	return n, str, true
}

// cellKeyAt reads a key of kind k at byte offset off of a well-formed cell.
func cellKeyAt(cell []byte, off int, k tuple.Kind) (n int64, str []byte) {
	if k == tuple.KindString {
		l := int(binary.LittleEndian.Uint32(cell[off:]))
		return 0, cell[off+4 : off+4+l]
	}
	return int64(binary.LittleEndian.Uint64(cell[off:])), nil
}

// NewHashJoin constructs the operator. buildOrd/probeOrd are the join column
// ordinals in the respective input schemas.
func NewHashJoin(ctx *Context, build, probe Operator, buildOrd, probeOrd int, schema *tuple.Schema) *HashJoinOp {
	return &HashJoinOp{
		ctx: ctx, build: build, probe: probe,
		buildOrd: buildOrd, probeOrd: probeOrd, need: tuple.AllColumns, schema: schema,
		stats: OpStats{Label: "HashJoin"},
	}
}

// setDemand sets the build columns the plan above reads; Build calls it.
// The build keeps those and the key.
func (j *HashJoinOp) setDemand(need uint64) { j.need = need | ordMask(j.buildOrd) }

// buildCols appends to dst, grown once, the build ordinals the build keeps,
// ascending: the demanded ones. A build wider than 64 columns has no mask
// bits past the 64th, so it keeps every column.
func buildCols(dst []int, need uint64, width int) []int {
	n := width
	if width > 64 {
		need = tuple.AllColumns
	} else {
		need &= ^uint64(0) >> uint(64-width)
		n = bits.OnesCount64(need)
	}
	cols := slices.Grow(dst, n)
	for o := 0; o < width; o++ {
		if o >= 64 || need&(1<<uint(o)) != 0 {
			cols = append(cols, o)
		}
	}
	return cols
}

// SetFilter wires a bit-vector filter to fill during the build phase.
func (j *HashJoinOp) SetFilter(f *filterSink) { j.filter = f }

// pushProbe marks the probe input as a bare table scan to push the probe
// into (builder only). The push-down happens in Open, after the build phase:
// the hash table is complete and read-only by the time the scan, or any of
// its workers, reads it, so no synchronization is needed beyond the scan's
// own barrier.
func (j *HashJoinOp) pushProbe(s probeHost) {
	j.scan = s
	_, j.joined = s.(*ParallelScan)
}

// Open implements Operator: drains the build input, then builds the hash
// table. Each build batch is retained with one copy of the demanded columns
// (buildCols), charged len(cols)·valueMemSize plus their strings per row;
// once the input is drained, the table is made with the retained row count as
// its size hint, so it never grows, and a join value's first row is a one-row
// window onto its batch's row headers, so only a duplicate join value
// allocates a row list of its own. The table is keyed by the key's position
// in the kept row. The build input is always closed before Open returns —
// even on error — so no page pins outlive the operator.
func (j *HashJoinOp) Open() error {
	if err := j.build.Open(); err != nil {
		return err
	}
	width := j.build.Schema().NumColumns()
	cols := buildCols(j.colBuf[:0], j.need, width)
	key, _ := slices.BinarySearch(cols, j.buildOrd)
	var batches [][]tuple.Row
	n := 0
	err := drain(j.ctx, j.build, func(b *Batch) error {
		rows, err := retainRows(j.ctx.Mem, make([]tuple.Row, 0, len(b.Sel)), b, cols)
		batches = append(batches, rows)
		n += len(rows)
		return err
	})
	if err != nil {
		j.build.Close() // release any pins held mid-batch (e.g. decode errors)
		return err
	}
	if err := j.build.Close(); err != nil {
		return err
	}
	j.table = valueMap[[]tuple.Row]{}
	if n > 0 {
		if j.build.Schema().Column(j.buildOrd).Kind == tuple.KindString {
			j.table.strs = make(map[string][]tuple.Row, n)
		} else {
			j.table.ints = make(map[int64][]tuple.Row, n)
		}
	}
	for _, rows := range batches {
		for k, row := range rows {
			v := row[key]
			list := j.table.lookup(v)
			if list == nil {
				list = rows[k : k+1 : k+1]
			} else {
				list = append(list, row)
			}
			if err := j.table.store(j.ctx.Mem, mapEntryOverhead, v, list); err != nil {
				return err
			}
			if j.filter != nil {
				j.filter.Add(v)
			}
		}
	}
	if j.keys, err = newJoinProbe(j.ctx.Mem, &j.table, j.probe.Schema(), j.probeOrd, cols, width); err != nil {
		return err
	}
	if j.scan != nil {
		j.scan.setProbe(&j.keys)
	}
	return j.probe.Open()
}

// NextBatch implements Operator for the probe phase. With a partitioned
// probe the exchange's arena-backed batches are forwarded whole — already
// joined by the workers. Otherwise each probe row is looked up through the
// same joinProbe a pushed-down scan uses; matches are copied into a reused
// output arena, and the joined row views are built only after the arena has
// stopped growing. Every match of a probe batch is delivered, whatever the
// consumer's row cap.
func (j *HashJoinOp) NextBatch(b *Batch) (int, error) {
	if j.joined {
		n, err := j.probe.NextBatch(b)
		j.stats.ActRows += int64(n)
		return n, err
	}
	for {
		n, err := j.probe.NextBatch(&j.pb)
		if err != nil || n == 0 {
			return 0, err
		}
		if j.scan == nil {
			// A pushed-down scan charged one row per predicate survivor
			// already, matched or not; any other input is charged here.
			j.ctx.touch(int64(n))
		}
		j.outVals = j.outVals[:0]
		j.outBounds = j.outBounds[:0]
		for _, i := range j.pb.Sel {
			probe := j.pb.Rows[i]
			for _, build := range j.keys.builds(probe) {
				j.outVals = j.keys.appendJoined(j.outVals, build, probe)
				j.outBounds = append(j.outBounds, len(j.outVals))
			}
		}
		if len(j.outBounds) == 0 {
			continue
		}
		j.outRows = sliceRows(j.outRows, j.outVals, j.outBounds)
		b.Rows = j.outRows
		b.Sel = identSel(b.Sel, len(j.outRows))
		j.stats.ActRows += int64(len(j.outRows))
		return len(j.outRows), nil
	}
}

// Close implements Operator.
func (j *HashJoinOp) Close() error { return j.probe.Close() }

// Schema implements Operator.
func (j *HashJoinOp) Schema() *tuple.Schema { return j.schema }

// Stats implements Operator.
func (j *HashJoinOp) Stats() *OpStats { return &j.stats }

// MergeJoinOp joins two inputs already ordered by their join columns. If a
// bit-vector filter is wired in, every consumed outer value is added to it
// as the merge advances — the partial bit-vector filter of §IV — and each
// match is reported to the inner scan through the RE→SE late-match callback
// so the boundary lookahead row is counted correctly.
type MergeJoinOp struct {
	ctx      *Context
	outer    rowCursor
	inner    rowCursor
	outerOrd int
	innerOrd int
	schema   *tuple.Schema
	filter   *filterSink
	innerSE  *SEScan // non-nil when the inner input bottoms out in an SE scan
	stats    OpStats

	// The current row of each input, cloned because the group buffers keep
	// it past its batch; nil once that input is exhausted.
	outerRow tuple.Row
	innerRow tuple.Row

	// Cross-product state for duplicate join values.
	outGroup   []tuple.Row
	inGroup    []tuple.Row
	outCharged int // group-buffer rows already charged to the memory tracker
	inCharged  int
	gi, gj     int
	emitting   bool

	// Output arena, as in the hash-join probe.
	vals   []tuple.Value
	bounds []int
	rows   []tuple.Row
}

// NewMergeJoin constructs the operator; inputs must be sorted ascending on
// their join columns.
func NewMergeJoin(ctx *Context, outer, inner Operator, outerOrd, innerOrd int, schema *tuple.Schema) *MergeJoinOp {
	return &MergeJoinOp{
		ctx: ctx, outer: rowCursor{in: outer}, inner: rowCursor{in: inner},
		outerOrd: outerOrd, innerOrd: innerOrd, schema: schema,
		stats: OpStats{Label: "MergeJoin"},
	}
}

// SetFilter wires a partial bit-vector filter filled as outer rows are
// consumed. innerSE (may be nil) receives late-match callbacks.
func (j *MergeJoinOp) SetFilter(f *filterSink, innerSE *SEScan) {
	j.filter = f
	j.innerSE = innerSE
}

// Open implements Operator.
func (j *MergeJoinOp) Open() error {
	if err := j.outer.open(); err != nil {
		return err
	}
	if err := j.inner.open(); err != nil {
		return err
	}
	if err := j.advanceOuter(); err != nil {
		return err
	}
	return j.advanceInner()
}

// step consumes one row of an input, charging its CPU.
func (j *MergeJoinOp) step(c *rowCursor) (tuple.Row, error) {
	row, err := c.next()
	if row == nil {
		return nil, err
	}
	j.ctx.touch(1)
	return row.Clone(), nil
}

func (j *MergeJoinOp) advanceOuter() (err error) {
	j.outerRow, err = j.step(&j.outer)
	if j.outerRow != nil && j.filter != nil {
		j.filter.Add(j.outerRow[j.outerOrd])
	}
	return err
}

func (j *MergeJoinOp) advanceInner() (err error) {
	j.innerRow, err = j.step(&j.inner)
	return err
}

// NextBatch implements Operator: the merge runs row by row and stops at the
// consumer's row cap, so a LIMIT pulls no input past its last joined row.
func (j *MergeJoinOp) NextBatch(b *Batch) (int, error) {
	j.vals = j.vals[:0]
	j.bounds = j.bounds[:0]
	for len(j.bounds) < b.limit() {
		if j.emitting {
			if j.gi < len(j.outGroup) {
				j.vals = append(j.vals, j.outGroup[j.gi]...)
				j.vals = append(j.vals, j.inGroup[j.gj]...)
				j.bounds = append(j.bounds, len(j.vals))
				j.gj++
				if j.gj == len(j.inGroup) {
					j.gj = 0
					j.gi++
				}
				continue
			}
			j.emitting = false
		}
		if j.outerRow == nil || j.innerRow == nil {
			break
		}
		cmp := j.outerRow[j.outerOrd].Compare(j.innerRow[j.innerOrd])
		var err error
		switch {
		case cmp < 0:
			err = j.advanceOuter()
		case cmp > 0:
			err = j.advanceInner()
		default:
			err = j.collectGroups()
		}
		if err != nil {
			return 0, err
		}
	}
	j.rows = sliceRows(j.rows, j.vals, j.bounds)
	b.Rows = j.rows
	b.Sel = identSel(b.Sel, len(j.rows))
	j.stats.ActRows += int64(len(j.rows))
	return len(j.rows), nil
}

// collectGroups gathers all outer and inner rows sharing the current join
// value and arms the cross-product emitter.
func (j *MergeJoinOp) collectGroups() error {
	v := j.outerRow[j.outerOrd]
	// The inner lookahead row matched: report it late (it streamed through
	// the scan before v necessarily entered the partial filter).
	if j.innerSE != nil {
		j.innerSE.lateMatch()
	}
	j.outGroup = j.outGroup[:0]
	j.inGroup = j.inGroup[:0]
	for j.outerRow != nil && j.outerRow[j.outerOrd].Compare(v) == 0 {
		if err := j.chargeGroupRow(len(j.outGroup), &j.outCharged, j.outerRow); err != nil {
			return err
		}
		j.outGroup = append(j.outGroup, j.outerRow)
		if err := j.advanceOuter(); err != nil {
			return err
		}
	}
	for j.innerRow != nil && j.innerRow[j.innerOrd].Compare(v) == 0 {
		if err := j.chargeGroupRow(len(j.inGroup), &j.inCharged, j.innerRow); err != nil {
			return err
		}
		j.inGroup = append(j.inGroup, j.innerRow)
		if err := j.advanceInner(); err != nil {
			return err
		}
	}
	j.gi, j.gj = 0, 0
	j.emitting = len(j.outGroup) > 0 && len(j.inGroup) > 0
	return nil
}

// chargeGroupRow charges the memory tracker when a group buffer grows past
// its previously charged capacity. The buffers are reset (s[:0]) for every
// duplicate join value, so charging each append would bill the sum of all
// group sizes; the budgetable quantity is the largest group's footprint.
func (j *MergeJoinOp) chargeGroupRow(cur int, charged *int, row tuple.Row) error {
	if cur < *charged {
		return nil
	}
	if err := j.ctx.Mem.Grow(rowMemSize(row)); err != nil {
		return err
	}
	*charged = cur + 1
	return nil
}

// Close implements Operator.
func (j *MergeJoinOp) Close() error {
	err1 := j.outer.in.Close()
	err2 := j.inner.in.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements Operator.
func (j *MergeJoinOp) Schema() *tuple.Schema { return j.schema }

// Stats implements Operator.
func (j *MergeJoinOp) Stats() *OpStats { return &j.stats }

// INLJoinOp is the Index Nested Loops join: for each outer row it seeks the
// inner table's index on the join column and fetches the matching rows. The
// residual selection on the inner table is applied after the join, per §IV:
// every fetched row's page counts toward DPC(inner, join-pred), and the
// residual is then judged on the fetched cell before any of it is decoded.
// Each fetched page is a logical I/O; on a cold cache, a physical random
// read — which is why DPC(inner, join-pred) dominates this operator's cost.
type INLJoinOp struct {
	ctx       *Context
	outer     rowCursor
	outerOrd  int
	innerTab  *catalog.Table
	innerIx   *catalog.Index
	innerPred fetchPred // residual, bound to inner schema
	schema    *tuple.Schema
	monitors  []*seekMonitor
	stats     OpStats

	// outerRow is the cursor's current row, valid while it is being probed:
	// the cursor does not move until the inner range is exhausted.
	outerRow tuple.Row
	it       *catalog.EntryIter

	// Output arena: each joined row is the outer row's values followed by
	// the inner fetch, decoded in place. pids buffers the fetched pages the
	// monitors observe when the batch is emitted.
	vals   []tuple.Value
	bounds []int
	rows   []tuple.Row
	pids   []storage.PageID
}

// NewINLJoin constructs the operator.
func NewINLJoin(ctx *Context, outer Operator, outerOrd int, innerTab *catalog.Table,
	innerIx *catalog.Index, innerPred expr.Conjunction, schema *tuple.Schema) *INLJoinOp {
	return &INLJoinOp{
		ctx: ctx, outer: rowCursor{in: outer}, outerOrd: outerOrd,
		innerTab: innerTab, innerIx: innerIx,
		innerPred: newFetchPred(ctx, innerPred, innerTab.Schema), schema: schema,
		stats: OpStats{Label: "INLJoin(" + innerTab.Name + "." + innerIx.Name + ")"},
	}
}

// attach adds a monitor (builder only).
func (j *INLJoinOp) attach(m *seekMonitor) { j.monitors = append(j.monitors, m) }

// setDemand sets the columns the plan above reads of the inner rows; Build
// calls it.
func (j *INLJoinOp) setDemand(need uint64) { j.innerPred.setDemand(need) }

// Open implements Operator.
func (j *INLJoinOp) Open() error { return j.outer.open() }

// NextBatch implements Operator: outer rows are probed one at a time and
// the join stops at the consumer's row cap, so a LIMIT fetches no inner row
// and pulls no outer row past its last joined row.
func (j *INLJoinOp) NextBatch(b *Batch) (int, error) {
	j.vals = j.vals[:0]
	j.bounds = j.bounds[:0]
	for len(j.bounds) < b.limit() {
		if j.it == nil {
			if err := j.probeNext(); err != nil {
				return 0, err
			}
			if j.it == nil {
				break
			}
		}
		if !j.it.Next() {
			if err := j.it.Err(); err != nil {
				return 0, err
			}
			j.it.Close()
			j.it = nil
			continue
		}
		if err := j.ctx.interrupted(); err != nil {
			return 0, err
		}
		j.ctx.touch(1)
		rid := j.it.RID()
		lo := len(j.vals)
		vals, kept, err := j.innerPred.fetch(j.innerTab, append(j.vals, j.outerRow...), rid)
		if err != nil {
			return 0, err
		}
		// Every fetched row satisfies the join predicate: monitors count
		// its page toward DPC(inner, join-pred) (§IV), whether or not the
		// residual keeps the row.
		if len(j.monitors) > 0 {
			j.pids = append(j.pids, rid.Page)
		}
		if !kept {
			j.vals = vals[:lo]
			continue
		}
		j.vals = vals
		j.bounds = append(j.bounds, len(vals))
	}
	j.pids = observePages(j.monitors, j.pids)
	j.rows = sliceRows(j.rows, j.vals, j.bounds)
	b.Rows = j.rows
	b.Sel = identSel(b.Sel, len(j.rows))
	j.stats.ActRows += int64(len(j.rows))
	return len(j.rows), nil
}

// probeNext takes the next outer row and opens the inner index range for its
// join value; j.it stays nil once the outer input is exhausted.
func (j *INLJoinOp) probeNext() error {
	row, err := j.outer.next()
	if row == nil {
		return err
	}
	j.ctx.touch(1)
	j.outerRow = row
	v := row[j.outerOrd]
	s, ok := expr.SuccValue(v)
	if !ok {
		return fmt.Errorf("exec: INL join value %v has no successor", v)
	}
	it, err := j.innerIx.SeekRange(expr.KeyRange{Lo: tuple.EncodeKey(v), Hi: tuple.EncodeKey(s)})
	if err != nil {
		return err
	}
	j.it = it
	return nil
}

// Close implements Operator.
func (j *INLJoinOp) Close() error {
	if j.it != nil {
		j.it.Close()
		j.it = nil
	}
	return j.outer.in.Close()
}

// Schema implements Operator.
func (j *INLJoinOp) Schema() *tuple.Schema { return j.schema }

// Stats implements Operator.
func (j *INLJoinOp) Stats() *OpStats { return &j.stats }
