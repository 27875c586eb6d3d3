package exec

import (
	"fmt"
	"math"

	"pagefeedback/internal/tuple"
)

// SortOp materializes and orders its input ascending by the given columns.
// When a bit-vector filter is wired in, each drained row's join value is
// added — since a Sort drains its child completely in Open, the filter is
// complete before anything downstream (in particular a Merge Join's inner
// scan) runs, the property §IV relies on.
//
// The sort keeps the first limit rows in output order, ties broken by
// arrival, in a bounded heap (see keep): a stable sort of its input cut at
// limit. Without a LIMIT right above it the limit is math.MaxInt, so every row
// is kept. Under a LIMIT n it holds n rows' memory, but still drains every
// input row, so CPU, rows touched and monitors see the input whole.
type SortOp struct {
	ctx    *Context
	input  Operator
	ords   []int
	desc   bool
	schema *tuple.Schema
	stats  OpStats

	filter    *filterSink
	filterOrd int

	limit int // rows to keep: a LIMIT's n, or math.MaxInt (builder only)
	rows  []tuple.Row
	seqs  []int // the arrival number of each heap row
	seen  int   // input rows drained so far
	pos   int
}

// NewSort constructs the operator; ords are the sort-column ordinals.
func NewSort(ctx *Context, input Operator, ords []int) *SortOp {
	return &SortOp{ctx: ctx, input: input, ords: ords, schema: input.Schema(),
		limit: math.MaxInt, stats: OpStats{Label: "Sort"}}
}

// SetFilter wires a bit-vector filter to fill with column ord while draining.
func (s *SortOp) SetFilter(f *filterSink, ord int) {
	s.filter = f
	s.filterOrd = ord
}

// SetDesc switches the sort to descending order.
func (s *SortOp) SetDesc(desc bool) { s.desc = desc }

// Open implements Operator: drains and sorts the input. The input is
// always closed before Open returns — even on error — so no page pins
// outlive the operator.
func (s *SortOp) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	s.rows, s.seqs, s.seen = s.rows[:0], s.seqs[:0], 0
	err := drain(s.ctx, s.input, func(b *Batch) error {
		if s.filter != nil {
			for _, i := range b.Sel {
				s.filter.Add(b.Rows[i][s.filterOrd])
			}
		}
		return s.keep(b)
	})
	if err != nil {
		s.input.Close() // release pins held mid-batch (e.g. decode errors)
		return err
	}
	if err := s.input.Close(); err != nil {
		return err
	}
	s.pos = 0
	return s.settle()
}

// compare orders two rows by the sort columns.
func (s *SortOp) compare(a, b tuple.Row) int {
	for _, o := range s.ords {
		if c := a[o].Compare(b[o]); c != 0 {
			if s.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// keep folds one input batch into the top-limit heap, a max-heap whose root
// is the worst row kept: by the sort columns, then by arrival. Rows fill it,
// copied into one value slab per batch, until it holds limit rows and is
// heapified. After that a row replaces the root only when it sorts strictly
// before it, since on a tie the earlier arrival wins; it is copied over the
// root's values in place (rows of one input share its schema's width), so a
// full heap allocates nothing. The slabs are charged before they are made;
// the strings the rows hold are charged by settle, once the heap keeps the
// final rows, so an unlimited sort charges them after its drain, not per
// batch.
func (s *SortOp) keep(b *Batch) error {
	sel := b.Sel
	if k := min(len(sel), s.limit-len(s.rows)); k > 0 {
		width := 0
		for _, i := range sel[:k] {
			width += len(b.Rows[i])
		}
		if err := s.ctx.Mem.Grow(int64(width) * valueMemSize); err != nil {
			return err
		}
		vals := make([]tuple.Value, width)
		for _, i := range sel[:k] {
			n := copy(vals, b.Rows[i])
			s.rows = append(s.rows, tuple.Row(vals[:n:n]))
			s.seqs = append(s.seqs, s.seen)
			s.seen++
			vals = vals[n:]
		}
		sel = sel[k:]
		if len(s.rows) == s.limit {
			s.heapify()
		}
	}
	for _, i := range sel {
		if row := b.Rows[i]; len(s.rows) > 0 && s.compare(row, s.rows[0]) < 0 {
			copy(s.rows[0], row)
			s.seqs[0] = s.seen
			s.siftDown(0, len(s.rows))
		}
		s.seen++
	}
	return nil
}

// settle charges the strings of the rows the heap kept, so the sort is
// charged the kept rows' rowMemSize in all, and puts the rows in output
// order by heap sort: the worst row left goes to the end of the heap.
func (s *SortOp) settle() error {
	var strs int64
	for _, r := range s.rows {
		for _, v := range r {
			strs += int64(len(v.Str))
		}
	}
	if err := s.ctx.Mem.Grow(strs); err != nil {
		return err
	}
	s.heapify()
	for end := len(s.rows) - 1; end > 0; end-- {
		s.swap(0, end)
		s.siftDown(0, end)
	}
	return nil
}

// heapify orders s.rows as the heap keep maintains.
func (s *SortOp) heapify() {
	for i := len(s.rows)/2 - 1; i >= 0; i-- {
		s.siftDown(i, len(s.rows))
	}
}

// worse reports whether heap row i sorts after heap row j.
func (s *SortOp) worse(i, j int) bool {
	c := s.compare(s.rows[i], s.rows[j])
	return c > 0 || c == 0 && s.seqs[i] > s.seqs[j]
}

// siftDown moves heap row i down the heap s.rows[:n] to its place.
func (s *SortOp) siftDown(i, n int) {
	for {
		w := i
		if l := 2*i + 1; l < n && s.worse(l, w) {
			w = l
		}
		if r := 2*i + 2; r < n && s.worse(r, w) {
			w = r
		}
		if w == i {
			return
		}
		s.swap(i, w)
		i = w
	}
}

// swap exchanges heap rows i and j.
func (s *SortOp) swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.seqs[i], s.seqs[j] = s.seqs[j], s.seqs[i]
}

// NextBatch implements Operator: the sorted rows are handed up in slices of
// the buffer, at most the consumer's row cap at a time.
func (s *SortOp) NextBatch(b *Batch) (int, error) {
	n := emitRows(b, s.rows, &s.pos)
	s.stats.ActRows += int64(n)
	return n, nil
}

// Close implements Operator.
func (s *SortOp) Close() error {
	s.rows, s.seqs = nil, nil
	return nil
}

// Schema implements Operator.
func (s *SortOp) Schema() *tuple.Schema { return s.schema }

// Stats implements Operator.
func (s *SortOp) Stats() *OpStats { return &s.stats }

// AggOp computes one ungrouped aggregate (COUNT/SUM/MIN/MAX) over its input
// and emits a single row.
//
// When its input is a parallel scan, or a hash join whose probe a parallel
// scan runs, the builder pushes the aggregate into the scan's workers (fold):
// each worker folds the rows it would have shipped into a private partial,
// the exchange carries no rows, and the operator merges the partials once
// the input reports end of stream, which is after the scan's barrier.
type AggOp struct {
	ctx    *Context
	input  Operator
	fn     byte // 'c','s','m','M'
	ord    int  // column ordinal; -1 for COUNT(*)
	schema *tuple.Schema
	stats  OpStats
	fold   *aggFold // pushed into a parallel scan's workers (builder only)

	done bool
	in   Batch
	out  [1]tuple.Row
}

// aggPartial is an aggregate's running state over some of its input rows:
// the whole input in AggOp, one partition in a folding scan worker.
type aggPartial struct {
	count, sum int64
	minV, maxV tuple.Value // meaningful once count > 0
}

// addRows folds the live rows of one batch, with the kind switch hoisted out
// of the per-row loop. COUNT(col) counts rows like COUNT(*) does (the engine
// has no NULLs), so a count folds the whole selection at once.
func (p *aggPartial) addRows(fn byte, ord int, rows []tuple.Row, sel []int) {
	switch fn {
	case 's':
		for _, i := range sel {
			p.addSum(rows[i][ord])
		}
	case 'm', 'M':
		for _, i := range sel {
			p.addMinMax(rows[i][ord])
		}
		return
	}
	p.count += int64(len(sel))
}

// addSum adds one row's value to a sum; the caller counts the row.
func (p *aggPartial) addSum(v tuple.Value) {
	if v.Kind != tuple.KindString {
		p.sum += v.Int
	}
}

// addMinMax folds one row's value into the extremes and counts the row.
func (p *aggPartial) addMinMax(v tuple.Value) {
	if p.count == 0 || v.Compare(p.minV) < 0 {
		p.minV = v
	}
	if p.count == 0 || v.Compare(p.maxV) > 0 {
		p.maxV = v
	}
	p.count++
}

// merge folds q, a partial over other rows, into p. An empty partial has no
// extremes, so it leaves a MIN or MAX alone.
func (p *aggPartial) merge(fn byte, q *aggPartial) {
	if q.count == 0 {
		return
	}
	if fn == 'm' || fn == 'M' {
		if p.count == 0 || q.minV.Compare(p.minV) < 0 {
			p.minV = q.minV
		}
		if p.count == 0 || q.maxV.Compare(p.maxV) > 0 {
			p.maxV = q.maxV
		}
	}
	p.count += q.count
	p.sum += q.sum
}

// result is the aggregate's value.
func (p *aggPartial) result(fn byte) int64 {
	switch fn {
	case 's':
		return p.sum
	case 'm':
		return p.minV.Int
	case 'M':
		return p.maxV.Int
	}
	return p.count
}

// aggFold is a scalar aggregate pushed into a parallel scan's workers. Worker
// i writes parts[i] alone; the AggOp reads them only after the scan's
// barrier.
type aggFold struct {
	fn    byte
	ord   int // in the rows the scan would ship: joined rows under a probe
	parts []aggPartial
	// join is the stats of the hash join whose probe the scan runs, or nil:
	// the barrier credits it the joined rows the workers folded.
	join *OpStats
}

// add folds the rows a worker would have shipped for one page into p: the
// survivors rows[sel], or under a probe each survivor joined with each of its
// build rows, the aggregate column read from whichever side holds it. It
// returns how many rows it folded, which the worker charges as AggOp would.
func (f *aggFold) add(p *aggPartial, rows []tuple.Row, sel []int, probe *joinProbe) int64 {
	if probe == nil {
		p.addRows(f.fn, f.ord, rows, sel)
		return int64(len(sel))
	}
	before := p.count
	for _, i := range sel {
		row := rows[i]
		builds := probe.builds(row)
		if f.fn == 'c' {
			p.count += int64(len(builds))
			continue
		}
		for _, b := range builds {
			var v tuple.Value
			if f.ord < len(b) {
				v = b[f.ord]
			} else {
				v = row[f.ord-len(b)]
			}
			if f.fn == 's' {
				p.addSum(v)
				p.count++
			} else {
				p.addMinMax(v)
			}
		}
	}
	return p.count - before
}

// NewAgg constructs the operator. fn is one of "count", "sum", "min", "max";
// ord is the input column ordinal (-1 for COUNT(*)).
func NewAgg(ctx *Context, input Operator, fn string, ord int, schema *tuple.Schema) (*AggOp, error) {
	var code byte
	switch fn {
	case "count":
		code = 'c'
	case "sum":
		code = 's'
	case "min":
		code = 'm'
	case "max":
		code = 'M'
	default:
		return nil, fmt.Errorf("exec: unknown aggregate %q", fn)
	}
	if code != 'c' && ord < 0 {
		return nil, fmt.Errorf("exec: %s requires a column", fn)
	}
	if ord >= 0 && code != 'c' && input.Schema().Column(ord).Kind == tuple.KindString {
		return nil, fmt.Errorf("exec: %s over a string column is not supported", fn)
	}
	return &AggOp{ctx: ctx, input: input, fn: code, ord: ord, schema: schema,
		stats: OpStats{Label: "Aggregate(" + fn + ")"}}, nil
}

// Open implements Operator.
func (a *AggOp) Open() error {
	a.done = false
	return a.input.Open()
}

// NextBatch implements Operator: it drains the input a batch at a time
// (CPU charged per batch of live rows), merges the workers' partials of a
// fold, and delivers the aggregate as a one-row batch.
func (a *AggOp) NextBatch(b *Batch) (int, error) {
	if a.done {
		return 0, nil
	}
	var acc aggPartial
	for {
		n, err := a.input.NextBatch(&a.in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break
		}
		a.ctx.touch(int64(n))
		acc.addRows(a.fn, a.ord, a.in.Rows, a.in.Sel)
	}
	if a.fold != nil {
		for i := range a.fold.parts {
			acc.merge(a.fn, &a.fold.parts[i])
		}
	}
	a.done = true
	a.stats.ActRows = 1
	a.out[0] = tuple.Row{tuple.Int64(acc.result(a.fn))}
	b.Rows = a.out[:]
	b.Sel = append(b.Sel[:0], 0)
	return 1, nil
}

// Close implements Operator.
func (a *AggOp) Close() error { return a.input.Close() }

// Schema implements Operator.
func (a *AggOp) Schema() *tuple.Schema { return a.schema }

// Stats implements Operator.
func (a *AggOp) Stats() *OpStats { return &a.stats }
