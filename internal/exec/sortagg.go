package exec

import (
	"fmt"
	"sort"

	"pagefeedback/internal/expr"
	"pagefeedback/internal/tuple"
)

// SortOp materializes and orders its input ascending by the given columns.
// When a bit-vector filter is wired in, each drained row's join value is
// added — since a Sort drains its child completely in Open, the filter is
// complete before anything downstream (in particular a Merge Join's inner
// scan) runs, the property §IV relies on.
type SortOp struct {
	ctx    *Context
	input  Operator
	ords   []int
	desc   bool
	schema *tuple.Schema
	stats  OpStats

	filter    *filterSink
	filterOrd int

	rows []tuple.Row
	pos  int
}

// NewSort constructs the operator; ords are the sort-column ordinals.
func NewSort(ctx *Context, input Operator, ords []int) *SortOp {
	return &SortOp{ctx: ctx, input: input, ords: ords, schema: input.Schema(),
		stats: OpStats{Label: "Sort"}}
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
	s.rows = s.rows[:0]
	err := drain(s.ctx, s.input, func(row tuple.Row) error {
		if s.filter != nil {
			s.filter.Add(row[s.filterOrd])
		}
		if err := s.ctx.Mem.Grow(rowMemSize(row)); err != nil {
			return err
		}
		s.rows = append(s.rows, row.Clone())
		return nil
	})
	if err != nil {
		s.input.Close() // release pins held mid-batch (e.g. decode errors)
		return err
	}
	if err := s.input.Close(); err != nil {
		return err
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, o := range s.ords {
			if c := s.rows[i][o].Compare(s.rows[j][o]); c != 0 {
				if s.desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	s.pos = 0
	return nil
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
	s.rows = nil
	return nil
}

// Schema implements Operator.
func (s *SortOp) Schema() *tuple.Schema { return s.schema }

// Stats implements Operator.
func (s *SortOp) Stats() *OpStats { return &s.stats }

// FilterOp applies a residual predicate in the relational engine.
type FilterOp struct {
	ctx   *Context
	input Operator
	pred  expr.Conjunction // bound to input schema
	cc    expr.Compiled    // type-specialized pred, when compilable
	stats OpStats
}

// NewFilter constructs the operator.
func NewFilter(ctx *Context, input Operator, pred expr.Conjunction) *FilterOp {
	return &FilterOp{ctx: ctx, input: input, pred: pred, cc: compilePred(ctx, pred),
		stats: OpStats{Label: "Filter(" + pred.String() + ")"}}
}

// Open implements Operator.
func (f *FilterOp) Open() error { return f.input.Open() }

// NextBatch implements Operator: the filter never materializes rows, it
// only compacts the batch's selection vector — column-at-a-time through the
// compiled evaluator when the predicate compiled, per-row through the
// generic one otherwise. The consumer's row cap passes through to the input
// with the batch.
func (f *FilterOp) NextBatch(b *Batch) (int, error) {
	for {
		n, err := f.input.NextBatch(b)
		if err != nil || n == 0 {
			return 0, err
		}
		f.ctx.touch(int64(n))
		if f.cc.OK() {
			b.Sel = f.cc.EvalBatch(b.Rows, b.Sel)
		} else {
			out := b.Sel[:0]
			for _, i := range b.Sel {
				if f.pred.Eval(b.Rows[i]) {
					out = append(out, i)
				}
			}
			b.Sel = out
		}
		if len(b.Sel) == 0 {
			continue
		}
		f.stats.ActRows += int64(len(b.Sel))
		return len(b.Sel), nil
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.input.Close() }

// Schema implements Operator.
func (f *FilterOp) Schema() *tuple.Schema { return f.input.Schema() }

// Stats implements Operator.
func (f *FilterOp) Stats() *OpStats { return &f.stats }

// AggOp computes one ungrouped aggregate (COUNT/SUM/MIN/MAX) over its input
// and emits a single row.
type AggOp struct {
	ctx    *Context
	input  Operator
	fn     byte // 'c','s','m','M'
	ord    int  // column ordinal; -1 for COUNT(*)
	schema *tuple.Schema
	stats  OpStats

	done bool
	in   Batch
	out  [1]tuple.Row
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
// (CPU charged per batch of live rows) and delivers the aggregate as a
// one-row batch. The fold is kind-specialized, with the switch hoisted out
// of the per-row loop.
func (a *AggOp) NextBatch(b *Batch) (int, error) {
	if a.done {
		return 0, nil
	}
	var count, sum int64
	var minV, maxV tuple.Value
	for {
		n, err := a.input.NextBatch(&a.in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break
		}
		a.ctx.touch(int64(n))
		switch a.fn {
		case 's':
			for _, i := range a.in.Sel {
				if v := a.in.Rows[i][a.ord]; v.Kind != tuple.KindString {
					sum += v.Int
				}
			}
		case 'm', 'M':
			for _, i := range a.in.Sel {
				v := a.in.Rows[i][a.ord]
				if count == 0 || v.Compare(minV) < 0 {
					minV = v
				}
				if count == 0 || v.Compare(maxV) > 0 {
					maxV = v
				}
				count++
			}
			continue
		}
		// COUNT(col) counts rows like COUNT(*) does (the engine has no
		// NULLs), so the whole selection folds at once.
		count += int64(n)
	}
	a.done = true
	a.stats.ActRows = 1
	agg := count
	switch a.fn {
	case 's':
		agg = sum
	case 'm':
		agg = minV.Int
	case 'M':
		agg = maxV.Int
	}
	a.out[0] = tuple.Row{tuple.Int64(agg)}
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
