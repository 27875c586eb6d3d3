// Package exec implements the physical operators and the monitor planner.
//
// The package enforces the relational-engine / storage-engine split that
// shapes the paper's design (§II-B, §V-A): scans, seeks, and fetches run
// "inside the SE" and see page ids; joins, sorts, and aggregates run "in the
// RE" and see only rows. The bit-vector filter of §IV crosses the boundary
// the same way the paper's prototype does — through an explicit callback
// object handed to the SE-side scan.
//
// Operators speak one protocol, Open → NextBatch* → Close: rows move between
// them in batches with selection vectors (see Batch), and the consumer may
// cap a batch's size so a LIMIT does no work past its last row. Operators
// that must step row by row — the merge and index nested-loops joins — do so
// inside themselves, over a cursor on their input's batches.
//
// Two robustness mechanisms live at this layer. Every operator is wrapped in
// a panic boundary that converts internal panics (decode failures on corrupt
// cells, comparator kind mismatches) into *OperatorPanic errors carrying the
// failing operator's label, so one bad page fails one query, not the
// process. And the shared execution Context carries a context.Context whose
// cancellation the loops of all storage-side operators observe, giving
// queries deadline and Ctrl-C semantics.
package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"pagefeedback/internal/storage"
	"pagefeedback/internal/trace"
	"pagefeedback/internal/tuple"
)

// Context carries per-execution state shared by all operators of one query.
type Context struct {
	// Pool is the buffer pool all storage access goes through.
	Pool *storage.BufferPool
	// CPUPerRow is the simulated CPU cost charged per row touched by any
	// operator; it is added to the disk's simulated I/O time to form the
	// query's simulated execution time.
	CPUPerRow time.Duration
	// Parallelism is the degree of intra-query parallelism: full scans (and
	// hash-join probes over them) split into that many partitioned workers.
	// 0 or 1 means serial execution; the builder never parallelizes
	// order-sensitive subtrees regardless of the setting.
	Parallelism int
	// Mem, when non-nil, accounts bytes materialized by allocating operators
	// against a per-query budget; exceeding it aborts the query with an
	// error wrapping ErrMemBudget.
	Mem *MemTracker
	// Vectorized is ignored: rows always move between operators in batches.
	// It is kept only so callers that still set it compile.
	Vectorized bool
	// Trace, when non-nil, receives per-operator spans from every panic
	// guard and partition spans from parallel workers. Nil is the tracing-
	// off state: every emission site is behind a nil check, so the
	// disabled path costs one pointer compare and zero allocations.
	Trace *trace.Recorder

	rowsTouched int64
	// rowsDecoded counts the rows table scans materialized as values (see
	// RuntimeStats.RowsDecoded).
	rowsDecoded int64
	// valuesDecoded counts the values those rows materialized (see
	// RuntimeStats.ValuesDecoded).
	valuesDecoded int64
	// compiledPreds counts operators that evaluate their predicate through
	// a type-specialized evaluator (expr.Compiled, or expr.RawCompiled on
	// table scans) instead of the generic per-atom dispatch. Operators increment it at construction time (single-
	// threaded), so no synchronization is needed.
	compiledPreds int64

	// batches counts the non-empty batches operators handed their parents
	// (and the root its sink) — an execution-shape diagnostic that no
	// simulated cost depends on.
	batches int64

	// goCtx is the query's cancellation scope; nil means uncancellable.
	goCtx     context.Context
	done      <-chan struct{}
	cancelErr error
}

// NewContext creates an execution context with the default CPU model
// (1 µs per row touched).
func NewContext(pool *storage.BufferPool) *Context {
	return &Context{Pool: pool, CPUPerRow: time.Microsecond}
}

// BindContext attaches a cancellation scope. Operators poll it at page
// granularity — once per page batch on scans, once per fetched page on seek
// paths — and abort with ctx.Err() once it fires.
func (c *Context) BindContext(ctx context.Context) {
	if ctx == nil {
		c.goCtx, c.done = nil, nil
		return
	}
	c.goCtx = ctx
	c.done = ctx.Done()
}

// interrupted returns the context's error once the attached context is
// cancelled or past its deadline. Callers invoke it at page granularity, so
// no per-call rate limiting is needed: it is one non-blocking select.
func (c *Context) interrupted() error {
	if c.cancelErr != nil {
		return c.cancelErr
	}
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		c.cancelErr = c.goCtx.Err()
		return c.cancelErr
	default:
		return nil
	}
}

// child creates a worker-private context for one partition of a parallel
// scan. It shares the pool and the cancellation scope but accumulates its
// row counters locally, so workers never contend on (or race over) the
// parent's; the barrier absorbs the counts after the workers have exited.
func (c *Context) child() *Context {
	return &Context{Pool: c.Pool, CPUPerRow: c.CPUPerRow, Mem: c.Mem, Trace: c.Trace, goCtx: c.goCtx, done: c.done}
}

// absorb folds a finished worker context's counters into c. Callers must
// guarantee the worker goroutine has exited (e.g. via WaitGroup.Wait).
func (c *Context) absorb(w *Context) {
	c.rowsTouched += w.rowsTouched
	c.rowsDecoded += w.rowsDecoded
	c.valuesDecoded += w.valuesDecoded
}

// touch charges CPU for n rows.
func (c *Context) touch(n int64) { c.rowsTouched += n }

// noteDecoded records rows materialized by a table scan, values in all.
func (c *Context) noteDecoded(rows, values int64) {
	c.rowsDecoded += rows
	c.valuesDecoded += values
}

// noteCompiled records that one operator compiled its predicate.
func (c *Context) noteCompiled() { c.compiledPreds++ }

// BatchesProcessed returns the number of non-empty batches operators have
// delivered so far.
func (c *Context) BatchesProcessed() int64 { return c.batches }

// CompiledPredicates returns the number of operators in this execution that
// run a compiled (type-specialized) predicate evaluator.
func (c *Context) CompiledPredicates() int64 { return c.compiledPreds }

// RowsTouched returns the total rows processed by all operators so far.
func (c *Context) RowsTouched() int64 { return c.rowsTouched }

// RowsDecoded returns how many rows table scans have decoded so far. It is
// deterministic — a function of the data, the predicate, and the monitors'
// page samples — and never exceeds the scans' share of RowsTouched.
func (c *Context) RowsDecoded() int64 { return c.rowsDecoded }

// ValuesDecoded returns how many column values those rows materialized: a
// scan decodes only the columns the plan above it, its predicate and its
// monitors read, so this is RowsDecoded times that column count, not times
// the table's width.
func (c *Context) ValuesDecoded() int64 { return c.valuesDecoded }

// SimCPU returns the simulated CPU time accumulated so far.
func (c *Context) SimCPU() time.Duration {
	return time.Duration(c.rowsTouched) * c.CPUPerRow
}

// Operator is one physical operator instance. The protocol is
// Open → NextBatch* → Close. NextBatch fills b and returns the number of live
// rows; 0 with a nil error is end of stream (operators never deliver empty
// batches).
type Operator interface {
	Open() error
	NextBatch(b *Batch) (n int, err error)
	Close() error
	Schema() *tuple.Schema
	Stats() *OpStats
}

// OpStats pairs the optimizer's estimates with execution actuals for one
// operator — the per-operator content of the "statistics xml" output.
type OpStats struct {
	Label   string
	EstRows float64
	EstDPC  float64
	ActRows int64
	// Children in plan order.
	Children []*OpStats

	// OpID identifies the operator within its execution; the builder
	// assigns ids in construction (post-) order, so they are deterministic
	// for a given plan whether or not tracing runs. Trace spans and DPC
	// results carry the same ids, which is how EXPLAIN ANALYZE aligns
	// per-operator actuals without runtime tree pointers.
	OpID int32
	// Wall and Calls are filled by the panic guard on traced runs only:
	// inclusive wall time inside the operator (Open + all NextBatch +
	// Close) and the number of NextBatch invocations.
	Wall  time.Duration
	Calls int64
}

// OperatorPanic is a panic raised inside a physical operator, recovered at
// the operator's boundary and converted into an ordinary query error. Op is
// the label of the deepest operator whose code (or whose storage-engine
// callees) panicked.
type OperatorPanic struct {
	Op    string
	Value any
	Stack []byte
}

// Error implements error.
func (p *OperatorPanic) Error() string {
	return fmt.Sprintf("exec: panic in operator %s: %v", p.Op, p.Value)
}

// guardOp wraps an operator with a panic boundary. Build wraps every
// operator it constructs, so a panic is recovered at the deepest operator
// it escaped from and surfaces as an *OperatorPanic naming that operator;
// parents see a plain error on the normal propagation path and release
// their resources exactly as they do for storage faults.
type guardOp struct {
	inner Operator
	// ctx receives the batch count: every delivery between operators passes
	// through exactly one guard.
	ctx *Context

	// Tracing state. The guard is also the tracing hook: because every
	// operator is wrapped in exactly one guard, instrumenting the guard
	// instruments the whole tree without touching any operator. tr is nil
	// when tracing is off. Per-call NextBatch spans would make trace size
	// proportional to the data, so the guard accumulates and emits one
	// summary span (plus open/close/lifetime spans) at first Close.
	tr        *trace.Recorder
	st        *OpStats
	openAt    time.Duration
	openDur   time.Duration
	firstNext time.Duration
	lastNext  time.Duration
	nextTotal time.Duration
	calls     int64
	rows      int64
	ended     bool
}

func (g *guardOp) recovered(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	*errp = &OperatorPanic{Op: g.inner.Stats().Label, Value: r, Stack: debug.Stack()}
}

// Open implements Operator. If the inner Open panics mid-way (for example
// while a blocking operator drains its input), the inner operator is closed
// best-effort so page pins acquired before the panic are released.
func (g *guardOp) Open() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &OperatorPanic{Op: g.inner.Stats().Label, Value: r, Stack: debug.Stack()}
			func() {
				defer func() { recover() }()
				g.inner.Close()
			}()
		}
	}()
	if g.tr == nil {
		return g.inner.Open()
	}
	g.openAt = g.tr.Now()
	err = g.inner.Open()
	end := g.tr.Now()
	g.openDur = end - g.openAt
	g.tr.Emit(trace.Span{Op: g.st.OpID, Kind: trace.KindOpen, Start: g.openAt, End: end})
	return err
}

// NextBatch implements Operator.
func (g *guardOp) NextBatch(b *Batch) (n int, err error) {
	defer g.recovered(&err)
	if g.tr == nil {
		n, err = g.inner.NextBatch(b)
	} else {
		t0 := g.tr.Now()
		if g.calls == 0 {
			g.firstNext = t0
		}
		n, err = g.inner.NextBatch(b)
		t1 := g.tr.Now()
		g.calls++
		g.nextTotal += t1 - t0
		g.lastNext = t1
		g.rows += int64(n)
	}
	if n > 0 {
		g.ctx.batches++
	}
	return n, err
}

// Close implements Operator. On traced runs the first Close ends the
// operator: it emits the close span, the NextBatch summary span, and the
// lifetime span (each exactly once, whatever the teardown order of the
// error paths), and publishes the accumulated wall time into the
// operator's stats — a field the XML marshaling excludes, so the
// statistics document stays byte-identical with tracing on or off.
func (g *guardOp) Close() (err error) {
	defer g.recovered(&err)
	if g.tr == nil {
		return g.inner.Close()
	}
	t0 := g.tr.Now()
	err = g.inner.Close()
	t1 := g.tr.Now()
	if !g.ended {
		g.ended = true
		g.tr.Emit(trace.Span{Op: g.st.OpID, Kind: trace.KindClose, Start: t0, End: t1})
		if g.calls > 0 {
			g.tr.Emit(trace.Span{
				Op: g.st.OpID, Kind: trace.KindNext,
				Start: g.firstNext, End: g.lastNext,
				N: g.rows, Calls: g.calls, Total: g.nextTotal,
			})
		}
		g.tr.Emit(trace.Span{Op: g.st.OpID, Kind: trace.KindOperator, Start: g.openAt, End: t1, N: g.rows})
		g.st.Wall = g.openDur + g.nextTotal + (t1 - t0)
		g.st.Calls = g.calls
	}
	return err
}

// Schema implements Operator.
func (g *guardOp) Schema() *tuple.Schema { return g.inner.Schema() }

// Stats implements Operator.
func (g *guardOp) Stats() *OpStats { return g.inner.Stats() }

// unwrapOp strips the panic guard, exposing the concrete operator for the
// builder's structural inspection (monitor wiring, sort detection).
func unwrapOp(op Operator) Operator {
	for {
		g, ok := op.(*guardOp)
		if !ok {
			return op
		}
		op = g.inner
	}
}
