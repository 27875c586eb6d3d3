package exec

import (
	"fmt"

	"pagefeedback/internal/tuple"
)

// ProjectOp narrows rows to a column subset.
type ProjectOp struct {
	ctx    *Context
	input  Operator
	ords   []int
	schema *tuple.Schema
	stats  OpStats

	in   Batch
	vals []tuple.Value // flat arena backing the batch output rows
	rows []tuple.Row
}

// NewProject builds the operator; ords index the input schema.
func NewProject(ctx *Context, input Operator, ords []int, schema *tuple.Schema) *ProjectOp {
	return &ProjectOp{ctx: ctx, input: input, ords: ords, schema: schema,
		stats: OpStats{Label: "Project"}}
}

// Open implements Operator.
func (p *ProjectOp) Open() error { return p.input.Open() }

// NextBatch implements Operator: the live rows of each input batch are
// projected into one reused value arena, and the output row views are built
// only after the arena has stopped growing (appends may move it). The arena
// is high-water reuse of transient, batch-bounded memory — rebuilt from
// length zero every call — so it is not charged against the memory budget.
// The consumer's row cap passes through to the input.
func (p *ProjectOp) NextBatch(b *Batch) (int, error) {
	p.in.Max = b.Max
	n, err := p.input.NextBatch(&p.in)
	if err != nil || n == 0 {
		return 0, err
	}
	p.ctx.touch(int64(n))
	w := len(p.ords)
	p.vals = p.vals[:0]
	for _, i := range p.in.Sel {
		row := p.in.Rows[i]
		for _, o := range p.ords {
			p.vals = append(p.vals, row[o])
		}
	}
	p.rows = p.rows[:0]
	for i := 0; i < n; i++ {
		p.rows = append(p.rows, tuple.Row(p.vals[i*w:(i+1)*w:(i+1)*w]))
	}
	b.Rows = p.rows
	b.Sel = identSel(b.Sel, n)
	p.stats.ActRows += int64(n)
	return n, nil
}

// Close implements Operator.
func (p *ProjectOp) Close() error { return p.input.Close() }

// Schema implements Operator.
func (p *ProjectOp) Schema() *tuple.Schema { return p.schema }

// Stats implements Operator.
func (p *ProjectOp) Stats() *OpStats { return &p.stats }

// LimitOp passes through at most n rows, then stops pulling from its input
// (so a LIMIT over a scan does not read the rest of the table).
type LimitOp struct {
	input Operator
	n     int
	seen  int
	stats OpStats
}

// NewLimit builds the operator.
func NewLimit(input Operator, n int) (*LimitOp, error) {
	if n < 0 {
		return nil, fmt.Errorf("exec: negative limit %d", n)
	}
	return &LimitOp{input: input, n: n, stats: OpStats{Label: fmt.Sprintf("Limit(%d)", n)}}, nil
}

// Open implements Operator.
func (l *LimitOp) Open() error {
	l.seen = 0
	return l.input.Open()
}

// NextBatch implements Operator. The limit caps each batch it asks for at
// the rows it still needs, so a row-by-row input stops exactly at the limit;
// a batch that still crosses it (a scan's page) is truncated by shrinking its
// selection vector. From then on the input is never pulled again, so a LIMIT
// over a scan does not read the rest of the table. The limit charges no CPU
// of its own.
func (l *LimitOp) NextBatch(b *Batch) (int, error) {
	rem := l.n - l.seen
	if rem <= 0 {
		return 0, nil
	}
	b.Max = rem
	n, err := l.input.NextBatch(b)
	if err != nil || n == 0 {
		return 0, err
	}
	if n > rem {
		b.Sel = b.Sel[:rem]
		n = rem
	}
	l.seen += n
	l.stats.ActRows += int64(n)
	return n, nil
}

// Close implements Operator.
func (l *LimitOp) Close() error { return l.input.Close() }

// Schema implements Operator.
func (l *LimitOp) Schema() *tuple.Schema { return l.input.Schema() }

// Stats implements Operator.
func (l *LimitOp) Stats() *OpStats { return &l.stats }
