package exec

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/trace"
	"pagefeedback/internal/tuple"
)

// parFlushRows is how many rows a worker accumulates before shipping a batch
// to the consumer; large enough to amortize channel traffic, small enough to
// keep the pipeline moving.
const parFlushRows = 1024

// parArenasPerWorker is how many arenas a row-shipping worker makes and
// charges; past it the worker waits for the consumer to hand one back.
const parArenasPerWorker = 2

// parArena is one worker flush: the values of the rows it ships and the row
// views sliced from them. It crosses the exchange whole, stays the
// consumer's batch until the next NextBatch call, and then goes back to home,
// the free list of the worker that made it, to be filled again.
type parArena struct {
	vals []tuple.Value
	rows []tuple.Row
	home chan parArena
}

// parBatch is one message from a scan worker to the consumer: either an
// arena of fully materialized rows or a terminal error.
type parBatch struct {
	arena parArena
	err   error
}

// errExchangeClosed ends a worker that was waiting for an arena when the
// consumer closed the scan; nobody reads it.
var errExchangeClosed = errors.New("exec: parallel scan closed")

// poisonArenas is true in test binaries: a handed-back arena is overwritten
// with poisonValue, so an operator that keeps a row view past the next
// NextBatch call reads values no decoder produces and fails its parity test.
var poisonArenas = testing.Testing()

// poisonValue has a kind no decoder produces.
var poisonValue = tuple.Value{Kind: tuple.Kind(0xff), Int: -0x5eadbeef, Str: "\x00poisoned"}

// ParallelScan executes a full table scan as a partition-parallel exchange:
// the table is split into contiguous page-disjoint partitions (heap PID
// ranges or clustered leaf-chain ranges), one worker drains each partition
// with its own row batch and a private shard of every attached monitor, and
// rows flow to the single consumer over a channel. Monitor shards and
// per-worker CPU accounting merge exactly once, at the barrier after all
// workers exit.
//
// Under a scalar aggregate the rows need not cross at all: the builder hands
// the scan an aggFold, each worker folds what it would have shipped into its
// own partial, and the channel carries only errors.
//
// Because each partition preserves grouped page access and the core counters
// sample pages by a pure function of (seed, pid), the merged monitor state —
// DPC estimates, cardinalities, quarantine status — is byte-identical to a
// serial scan's. Row order is not: partitions interleave at channel
// granularity, so the builder only plants this operator in order-insensitive
// subtrees.
type ParallelScan struct {
	ctx      *Context
	tab      *catalog.Table
	pred     expr.Conjunction // bound
	raw      expr.RawCompiled // pred over encoded cells; workers share it read-only
	degree   int
	demand   uint64         // columns the plan above reads (builder only)
	monitors []*scanMonitor // templates; receive merged shard state
	probe    *joinProbe     // optional hash-join probe push-down, set before Open
	fold     *aggFold       // optional aggregate folded in the workers (builder only)
	stats    OpStats

	held      parArena // the consumer's current batch, handed back next call
	out       chan parBatch
	stop      chan struct{}
	wg        sync.WaitGroup
	wctxs     []*Context
	shards    [][]*scanMonitor // shards[worker][monitor]
	actRows   []int64          // per-worker rows passing the scan predicate
	stopped   bool
	finalized bool
}

// NewParallelScan builds a parallel scan of tab filtered by pred (bound to
// the table's schema) with the given worker degree (>= 2).
func NewParallelScan(ctx *Context, tab *catalog.Table, pred expr.Conjunction, degree int) *ParallelScan {
	return &ParallelScan{
		ctx: ctx, tab: tab, pred: pred, raw: expr.CompileRaw(pred, tab.Schema), degree: degree,
		demand: tuple.AllColumns,
		stats:  OpStats{Label: fmt.Sprintf("ParallelScan(%s) x%d", tab.Name, degree)},
	}
}

// attach adds a monitor template (called by the builder). Each worker
// observes through a private shard of it; the template only ever sees merged
// state.
func (p *ParallelScan) attach(m *scanMonitor) {
	m.setSchema(p.tab.Schema)
	p.monitors = append(p.monitors, m)
}

// setDemand implements monitoredScan.
func (p *ParallelScan) setDemand(need uint64) { p.demand = need }

// Table returns the scanned table.
func (p *ParallelScan) Table() *catalog.Table { return p.tab }

// setProbe implements probeHost: the partitioned probe phase of a parallel
// hash join. Every worker's page visit judges the shared, read-only table on
// page bytes and charges the probe's per-row CPU, and the worker emits the
// joined rows (build columns first, as in plan.JoinSchema) in place of the
// matching probe rows.
func (p *ParallelScan) setProbe(jp *joinProbe) { p.probe = jp }

// Open implements Operator: it partitions the table and starts one worker
// per partition. A closer goroutine shuts the output channel once every
// worker has exited, which is the consumer's end-of-stream signal.
func (p *ParallelScan) Open() error {
	parts, err := p.tab.ScanPartitions(p.degree)
	if err != nil {
		return err
	}
	p.stop = make(chan struct{})
	p.out = make(chan parBatch, 2*p.degree)
	p.held = parArena{}
	p.stopped = false
	p.finalized = false
	p.wctxs = p.wctxs[:0]
	p.shards = p.shards[:0]
	p.actRows = make([]int64, len(parts))
	if p.fold != nil {
		p.fold.parts = make([]aggPartial, len(parts))
	}
	dec := planDecode(p.tab.Schema, p.demand, p.pred, p.monitors)
	for i, part := range parts {
		wctx := p.ctx.child()
		shard := make([]*scanMonitor, len(p.monitors))
		for j, m := range p.monitors {
			shard[j] = m.shard()
		}
		p.wctxs = append(p.wctxs, wctx)
		p.shards = append(p.shards, shard)
		p.wg.Add(1)
		go p.worker(i, wctx, part, shard, dec)
	}
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
	return nil
}

// worker drains one partition through its own pageVisit — the page step the
// serial scan uses — over its iterator, monitor shard, and context; the only
// shared mutable state it touches is the output channel, its arenas' free
// list, and its own slots of actRows and the fold's partials. Without a fold
// it ships its rows in arenas (see take); with one it copies no row: it folds
// each page's output into its partial and charges those rows' CPU, as AggOp
// would have. A panic anywhere inside — decode failures, monitor bugs
// escaping the quarantine guard — is converted to an *OperatorPanic and
// shipped to the consumer like any other error, so the process-wide panic
// boundary holds across goroutines.
func (p *ParallelScan) worker(idx int, wctx *Context, part catalog.ScanPart, mons []*scanMonitor, dec scanDecode) {
	defer p.wg.Done()
	defer part.Iter.Close()
	defer func() {
		if r := recover(); r != nil {
			p.send(parBatch{err: recoveredPanic(p.stats.Label, r)})
		}
	}()
	// On traced runs every worker emits one partition span into the shared
	// recorder — concurrent lock-free emission is exactly what the span
	// buffer is built for. Workers start after the operator's Open began
	// and exit before its Close returns, so the span nests in the
	// operator's lifetime. The row count is worker-local until the
	// finalize barrier, so reading it here races with nothing.
	if tr := wctx.Trace; tr != nil {
		pstart := tr.Now()
		defer func() {
			tr.Emit(trace.Span{
				Op: p.stats.OpID, Kind: trace.KindPartition,
				Start: pstart, End: tr.Now(), N: p.actRows[idx],
			})
		}()
	}

	var (
		visit  = pageVisit{ctx: wctx, pred: p.pred, raw: p.raw, monitors: mons, probe: p.probe}
		sel    []int
		vals   []tuple.Value // the arena being filled; nil until its first row
		rows   []tuple.Row   // the arena's row views
		free   chan parArena // arenas the consumer handed back
		made   int
		bounds []int // prefix lengths into vals, one per pending row
		fail   error // why emit stopped: a budget overrun or the scan closing
	)
	// Arenas are sized for a full batch up front: growing one by append
	// doubling would allocate (and memcpy) ~2x the final size in discarded
	// steps. Flushes happen on page boundaries, so leave headroom for the
	// last page's overshoot past parFlushRows.
	const arenaRows = parFlushRows + parFlushRows/2
	// take readies an arena for the next flush. The worker's first two are
	// made here and charged against the query's memory budget, so the charge
	// is min(flushes, 2) arenas whatever the scheduling; after that it waits
	// for the consumer to hand one back.
	take := func(width int) error {
		if made < parArenasPerWorker {
			if free == nil {
				free = make(chan parArena, parArenasPerWorker)
			}
			if err := wctx.Mem.Grow(int64(arenaRows*width) * valueMemSize); err != nil {
				return err
			}
			made++
			vals = make([]tuple.Value, 0, arenaRows*width)
			rows = make([]tuple.Row, 0, arenaRows)
			return nil
		}
		select {
		case a := <-free:
			vals, rows = a.vals[:0], a.rows
			return nil
		case <-p.stop:
			return errExchangeClosed
		}
	}
	// emit appends one output row: row itself, or when the worker joins, the
	// joined row of build row b and row.
	emit := func(b, row tuple.Row) {
		if fail != nil {
			return
		}
		if vals == nil {
			width := len(row)
			if p.probe != nil {
				width += p.probe.width
			}
			if fail = take(width); fail != nil {
				return
			}
		}
		if p.probe == nil {
			vals = append(vals, row...)
		} else {
			vals = p.probe.appendJoined(vals, b, row)
		}
		bounds = append(bounds, len(vals))
	}
	flush := func() bool {
		if len(bounds) == 0 {
			return true
		}
		rows = sliceRows(rows, vals, bounds)
		if !p.send(parBatch{arena: parArena{vals: vals, rows: rows, home: free}}) {
			return false
		}
		vals, rows = nil, nil // the consumer's until it hands them back
		bounds = bounds[:0]
		return true
	}

	visit.open(part.Iter, dec)
	for {
		ok, err := visit.next()
		if err != nil {
			p.send(parBatch{err: err})
			return
		}
		if !ok {
			break
		}
		sel = identSel(sel, visit.batch.Len())
		p.actRows[idx] += int64(visit.passed)
		if p.fold != nil {
			wctx.touch(p.fold.add(&p.fold.parts[idx], visit.batch.Rows, sel, p.probe))
			continue
		}
		for _, i := range sel {
			row := visit.batch.Rows[i]
			if p.probe == nil {
				emit(nil, row)
				continue
			}
			for _, b := range p.probe.builds(row) {
				emit(b, row)
			}
		}
		if fail != nil {
			p.send(parBatch{err: fail})
			return
		}
		if len(bounds) >= parFlushRows {
			if !flush() {
				return
			}
		}
	}
	flush()
}

// send ships one message to the consumer, giving up if the scan is being
// torn down. Returns false when the worker should exit.
func (p *ParallelScan) send(b parBatch) bool {
	select {
	case p.out <- b:
		return true
	case <-p.stop:
		return false
	}
}

// NextBatch implements Operator: each worker flush — an arena of rows the
// workers ship whole through the exchange channel — is forwarded to the
// consumer as one dense batch. The batch is valid until the next call, so
// the call first hands the previous arena back to the worker that made it.
// Under a fold no rows arrive, and the first call returns end of stream once
// the barrier has merged the workers' state. The first error shipped by any
// worker surfaces here; Close then tears the remaining workers down.
func (p *ParallelScan) NextBatch(b *Batch) (int, error) {
	p.handBack()
	msg, ok := <-p.out
	if !ok {
		p.finalize()
		return 0, nil
	}
	if msg.err != nil {
		return 0, msg.err
	}
	p.held = msg.arena
	b.Rows = msg.arena.rows
	b.Sel = identSel(b.Sel, len(b.Rows))
	return len(b.Rows), nil
}

// handBack returns the consumer's current arena to its worker's free list,
// poisoned first in test binaries. The list holds every arena its worker
// made, so the send never blocks.
func (p *ParallelScan) handBack() {
	a := p.held
	if a.home == nil {
		return
	}
	p.held = parArena{}
	if poisonArenas {
		for i := range a.vals {
			a.vals[i] = poisonValue
		}
	}
	a.home <- a
}

// Close implements Operator: it hands back the consumer's batch, signals the
// workers to stop — one waiting for an arena stops waiting — drains the
// channel so none of them blocks on a send, waits for all of them to exit,
// and merges their state. Safe to call multiple times.
func (p *ParallelScan) Close() error {
	if p.stop == nil {
		return nil // never opened
	}
	p.handBack()
	if !p.stopped {
		p.stopped = true
		close(p.stop)
	}
	for range p.out {
	}
	p.finalize()
	return nil
}

// finalize runs once, after every worker has exited (the channel closing or
// Close's Wait proves it): worker CPU accounting folds into the query
// context, monitor shards fold into their templates, and per-worker row
// counts fold into the operator stats — under a fold over a pushed probe,
// the joined rows into the join's as well. This is the single barrier of the
// exchange — no merged state is visible until all partitions are done.
func (p *ParallelScan) finalize() {
	if p.finalized {
		return
	}
	p.wg.Wait()
	p.finalized = true
	for _, wctx := range p.wctxs {
		p.ctx.absorb(wctx)
	}
	for w, shard := range p.shards {
		for j, s := range shard {
			p.monitors[j].absorb(s)
		}
		p.stats.ActRows += p.actRows[w]
	}
	if f := p.fold; f != nil && f.join != nil {
		for i := range f.parts {
			f.join.ActRows += f.parts[i].count
		}
	}
}

// Schema implements Operator: the table's. With a probe pushed down the
// emitted rows are joined rows, whose schema the hash join reports.
func (p *ParallelScan) Schema() *tuple.Schema { return p.tab.Schema }

// Stats implements Operator. ActRows counts rows passing the scan predicate,
// matching the serial scan's accounting even when a probe push-down changes
// what the operator physically emits.
func (p *ParallelScan) Stats() *OpStats { return &p.stats }

// recoveredPanic converts a recovered worker panic into the same
// *OperatorPanic the single-goroutine boundary produces, so cross-goroutine
// panics surface to callers exactly like same-goroutine ones.
func recoveredPanic(label string, r any) error {
	if op, ok := r.(*OperatorPanic); ok {
		return op
	}
	return &OperatorPanic{Op: label, Value: r, Stack: debug.Stack()}
}
