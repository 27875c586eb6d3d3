package exec

import (
	"reflect"
	"testing"

	"pagefeedback/internal/tuple"
)

// countingSource is a stub child that emits rows forever and records exactly
// how it is driven, so tests can assert an operator stopped pulling — not
// just that it stopped emitting. Each batch holds batchRows rows, capped at
// the consumer's Max when honorMax is set (a row-by-row producer) and whole
// otherwise (a page-granular one).
type countingSource struct {
	schema    *tuple.Schema
	honorMax  bool
	rows      []tuple.Row
	next      int64
	maxSeen   []int
	closes    int
	stats     OpStats
	batchRows int
}

func newCountingSource(batchRows int, honorMax bool) *countingSource {
	return &countingSource{
		schema:    tuple.NewSchema(tuple.Column{Name: "v", Kind: tuple.KindInt}),
		honorMax:  honorMax,
		batchRows: batchRows,
		stats:     OpStats{Label: "CountingSource"},
	}
}

func (s *countingSource) Open() error { return nil }

func (s *countingSource) NextBatch(b *Batch) (int, error) {
	s.maxSeen = append(s.maxSeen, b.Max)
	n := s.batchRows
	if s.honorMax {
		n = min(n, b.limit())
	}
	s.rows = s.rows[:0]
	for i := 0; i < n; i++ {
		s.rows = append(s.rows, tuple.Row{tuple.Int64(s.next)})
		s.next++
	}
	b.Rows = s.rows
	b.Sel = identSel(b.Sel, n)
	return n, nil
}

func (s *countingSource) Close() error { s.closes++; return nil }

func (s *countingSource) Schema() *tuple.Schema { return s.schema }

func (s *countingSource) Stats() *OpStats { return &s.stats }

// drainLimit pulls a limit of 25 over src through a panic guard until end of
// stream and returns the batch sizes it delivered.
func drainLimit(t *testing.T, ctx *Context, src *countingSource) []int {
	t.Helper()
	lim, err := NewLimit(src, 25)
	if err != nil {
		t.Fatal(err)
	}
	op := &guardOp{inner: lim, ctx: ctx}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	var sizes []int
	for {
		n, err := op.NextBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if n != len(b.Sel) {
			t.Fatalf("NextBatch returned n=%d but |Sel|=%d", n, len(b.Sel))
		}
		sizes = append(sizes, n)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if src.closes != 1 {
		t.Fatalf("child closed %d times, want 1", src.closes)
	}
	return sizes
}

// TestLimitBatchEarlyExit pins the limit contract over a page-granular
// child, which ignores the row cap: a batch that crosses the limit is
// truncated by shrinking its selection vector, and once the limit is hit the
// child is never pulled again — over an unbounded child, anything else would
// hang or over-read.
func TestLimitBatchEarlyExit(t *testing.T) {
	ctx := NewContext(nil)
	src := newCountingSource(10, false)
	if sizes := drainLimit(t, ctx, src); !reflect.DeepEqual(sizes, []int{10, 10, 5}) {
		t.Fatalf("batch sizes = %v, want [10 10 5]", sizes)
	}
	if !reflect.DeepEqual(src.maxSeen, []int{25, 15, 5}) {
		t.Fatalf("child saw row caps %v, want [25 15 5] (no pull after the limit is hit)", src.maxSeen)
	}
	if got := ctx.BatchesProcessed(); got != 3 {
		t.Errorf("BatchesProcessed = %d, want 3 (the guard counts every non-empty batch)", got)
	}
}

// TestLimitRowEarlyExit is the same contract over a row-by-row child, which
// honors the row cap: it produces exactly the 25 rows the limit returns, so
// the limit never truncates and does no work past its last row.
func TestLimitRowEarlyExit(t *testing.T) {
	ctx := NewContext(nil)
	src := newCountingSource(BatchSize, true)
	if sizes := drainLimit(t, ctx, src); !reflect.DeepEqual(sizes, []int{25}) {
		t.Fatalf("batch sizes = %v, want [25]", sizes)
	}
	if src.next != 25 {
		t.Fatalf("child produced %d rows, want exactly 25", src.next)
	}
}

// TestRowCursorSteps checks the cursor the row-by-row joins read their
// inputs through: rows arrive in order across batch boundaries, a batch is
// pulled only once the previous one is used up, and the child is never
// pulled again after end of stream.
func TestRowCursorSteps(t *testing.T) {
	src := newCountingSource(4, false)
	lim, err := NewLimit(src, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := rowCursor{in: lim}
	if err := c.open(); err != nil {
		t.Fatal(err)
	}
	for want := int64(0); want < 10; want++ {
		row, err := c.next()
		if err != nil || row == nil {
			t.Fatalf("row %d: got %v, %v", want, row, err)
		}
		if row[0].Int != want {
			t.Fatalf("row %d has value %d", want, row[0].Int)
		}
		if pulls := len(src.maxSeen); pulls != int(want/4)+1 {
			t.Fatalf("after row %d the child was pulled %d times, want %d", want, pulls, want/4+1)
		}
	}
	for i := 0; i < 3; i++ {
		if row, err := c.next(); row != nil || err != nil {
			t.Fatalf("past the end: got %v, %v", row, err)
		}
	}
	if pulls := len(src.maxSeen); pulls != 3 {
		t.Fatalf("child pulled %d times, want 3", pulls)
	}
}
