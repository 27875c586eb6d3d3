package exec

import (
	"fmt"
	"runtime/debug"
	"sync"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/trace"
	"pagefeedback/internal/tuple"
)

// parFlushRows is how many rows a worker accumulates before shipping a batch
// to the consumer; large enough to amortize channel traffic, small enough to
// keep the pipeline moving.
const parFlushRows = 1024

// parPrefetchChunk is the read-ahead window a worker asks the buffer pool to
// prefetch as it advances through its page range.
const parPrefetchChunk = 16

// parBatch is one message from a scan worker to the consumer: either a slice
// of fully materialized rows (backed by a private arena, never reused) or a
// terminal error.
type parBatch struct {
	rows []tuple.Row
	err  error
}

// ParallelScan executes a full table scan as a partition-parallel exchange:
// the table is split into contiguous page-disjoint partitions (heap PID
// ranges or clustered leaf-chain ranges), one worker drains each partition
// with its own row batch and a private shard of every attached monitor, and
// rows flow to the single consumer over a channel. Monitor shards and
// per-worker CPU accounting merge exactly once, at the barrier after all
// workers exit.
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
	stats    OpStats

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
		ctx: ctx, tab: tab, pred: pred, raw: compileScanPred(ctx, pred, tab.Schema), degree: degree,
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

// Degree returns the number of partitions the scan was asked to run with.
func (p *ParallelScan) Degree() int { return p.degree }

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
	p.stopped = false
	p.finalized = false
	p.wctxs = p.wctxs[:0]
	p.shards = p.shards[:0]
	p.actRows = make([]int64, len(parts))
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
// shared mutable state it touches is the output channel. A panic anywhere
// inside — decode failures, monitor bugs escaping the quarantine guard — is
// converted to an *OperatorPanic and shipped to the consumer like any other
// error, so the process-wide panic boundary holds across goroutines.
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
		arena  []tuple.Value
		bounds []int // prefix lengths into arena, one per pending row
		pages  int
	)
	// Arenas are sized for a full batch up front: growing one by append
	// doubling would allocate (and memcpy) ~2x the final size in discarded
	// steps on every flush, which on a busy query is most of the exchange
	// overhead. Flushes happen on page boundaries, so leave headroom for the
	// last page's overshoot past parFlushRows.
	arenaCap := 0
	var memErr error
	// emit appends one output row, the concatenation of head and tail (tail
	// is nil unless the worker joins).
	emit := func(head, tail tuple.Row) {
		if memErr != nil {
			return
		}
		if arena == nil {
			if arenaCap == 0 {
				arenaCap = (parFlushRows + parFlushRows/2) * (len(head) + len(tail))
			}
			// Arenas are retained by the consumer, so each one is charged
			// against the query's memory budget when allocated.
			if memErr = wctx.Mem.Grow(int64(arenaCap) * valueMemSize); memErr != nil {
				return
			}
			arena = make([]tuple.Value, 0, arenaCap)
		}
		arena = append(arena, head...)
		arena = append(arena, tail...)
		bounds = append(bounds, len(arena))
	}
	flush := func() bool {
		if len(bounds) == 0 {
			return true
		}
		rows := make([]tuple.Row, len(bounds))
		lo := 0
		for i, hi := range bounds {
			rows[i] = tuple.Row(arena[lo:hi:hi])
			lo = hi
		}
		if !p.send(parBatch{rows: rows}) {
			return false
		}
		arena = nil // handed to the consumer; start a fresh arena
		bounds = bounds[:0]
		return true
	}

	visit.open(part.Iter, dec)
	p.prefetch(part, 0)
	for {
		ok, err := visit.next()
		if err != nil {
			p.send(parBatch{err: err})
			return
		}
		if !ok {
			break
		}
		pages++
		if pages%parPrefetchChunk == 0 {
			p.prefetch(part, pages)
		}
		sel = visit.survivors(sel)
		p.actRows[idx] += int64(visit.passed)
		for _, i := range sel {
			row := visit.batch.Rows[i]
			if p.probe == nil {
				emit(row, nil)
				continue
			}
			for _, b := range p.probe.builds(row) {
				emit(b, row)
			}
		}
		if memErr != nil {
			p.send(parBatch{err: memErr})
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

// prefetch asks the pool to read ahead the next chunk of the partition's
// pages. Purely advisory: the pool skips resident pages and drops requests
// under pressure.
func (p *ParallelScan) prefetch(part catalog.ScanPart, done int) {
	lo := done
	hi := done + parPrefetchChunk
	if hi > len(part.Pages) {
		hi = len(part.Pages)
	}
	if lo < hi {
		p.ctx.Pool.Prefetch(part.File, part.Pages[lo:hi])
	}
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

// NextBatch implements Operator: each worker flush — an arena-backed row
// slice the workers ship whole through the exchange channel — is forwarded
// to the consumer as one dense batch. The arenas are private and never
// reused, so unlike page-batched scans these batches stay valid after the
// next call. The first error shipped by any worker surfaces here; Close then
// tears the remaining workers down.
func (p *ParallelScan) NextBatch(b *Batch) (int, error) {
	for {
		msg, ok := <-p.out
		if !ok {
			p.finalize()
			return 0, nil
		}
		if msg.err != nil {
			return 0, msg.err
		}
		if len(msg.rows) == 0 {
			continue
		}
		b.Rows = msg.rows
		b.Sel = identSel(b.Sel, len(msg.rows))
		return len(msg.rows), nil
	}
}

// Close implements Operator: it signals the workers to stop, drains the
// channel so none of them blocks on a send, waits for all of them to exit,
// and merges their state. Safe to call multiple times.
func (p *ParallelScan) Close() error {
	if p.stop == nil {
		return nil // never opened
	}
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
// counts fold into the operator stats. This is the single barrier of the
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
