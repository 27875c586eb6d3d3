package exec

import (
	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// SEScan scans a table's data pages in physical order, evaluating the scan
// predicate inside the storage engine with short-circuiting — the Heap Scan
// / Clustered Index Scan of §III-B. It owns the grouped page access
// property, so attached monitors can count distinct pages exactly (prefix
// predicates) or via DPSample (everything else).
type SEScan struct {
	tab    *catalog.Table
	krange *expr.KeyRange // clustered range seek, nil = full scan
	demand uint64         // columns the plan above reads (builder only)
	visit  pageVisit
	stats  OpStats
}

// NewSEScan builds a scan of tab filtered by pred (already bound to the
// table's schema).
func NewSEScan(ctx *Context, tab *catalog.Table, pred expr.Conjunction) *SEScan {
	return newSEScan(ctx, tab, pred, nil, "Scan(")
}

// NewSEClusterRangeScan builds a clustered index range seek over krange,
// still applying the full pred to each scanned row.
func NewSEClusterRangeScan(ctx *Context, tab *catalog.Table, pred expr.Conjunction, krange *expr.KeyRange) *SEScan {
	return newSEScan(ctx, tab, pred, krange, "RangeScan(")
}

func newSEScan(ctx *Context, tab *catalog.Table, pred expr.Conjunction, krange *expr.KeyRange, label string) *SEScan {
	return &SEScan{tab: tab, krange: krange, demand: tuple.AllColumns,
		visit: pageVisit{ctx: ctx, pred: pred, raw: compileScanPred(ctx, pred, tab.Schema)},
		stats: OpStats{Label: label + tab.Name + ")"}}
}

// compilePred compiles pred at operator-construction time (single-threaded)
// and records the use in the execution context's statistics.
func compilePred(ctx *Context, pred expr.Conjunction) expr.Compiled {
	cc := expr.Compile(pred)
	if cc.OK() && ctx != nil {
		ctx.noteCompiled()
	}
	return cc
}

// satisfies judges a decoded row with the compiled form of pred when it has
// one, the generic evaluator otherwise.
func satisfies(cc expr.Compiled, pred expr.Conjunction, row tuple.Row) bool {
	if cc.OK() {
		return cc.Eval(row)
	}
	return pred.Eval(row)
}

// attach adds a monitor (called by the builder).
func (s *SEScan) attach(m *scanMonitor) {
	m.setSchema(s.tab.Schema)
	s.visit.monitors = append(s.visit.monitors, m)
}

// setDemand implements monitoredScan.
func (s *SEScan) setDemand(need uint64) { s.demand = need }

// setProbe implements probeHost: the scan hands up only the predicate
// survivors with a build match, and charges the join's per-row CPU.
func (s *SEScan) setProbe(p *joinProbe) { s.visit.probe = p }

// Table returns the scanned table.
func (s *SEScan) Table() *catalog.Table { return s.tab }

// Open implements Operator.
func (s *SEScan) Open() error {
	var it *catalog.RowIter
	var err error
	if s.krange != nil {
		it, err = s.tab.ScanRange(*s.krange)
	} else {
		it, err = s.tab.ScanAll()
	}
	if err != nil {
		return err
	}
	s.visit.open(it, planDecode(s.tab.Schema, s.demand, s.visit.pred, s.visit.monitors))
	return nil
}

// NextBatch implements Operator. The scan works page at a time: each data
// page is pinned once and judged by the shared page visit, and its rows are
// handed up directly with a selection vector of the survivors, whatever the
// consumer's row cap. Pages with no survivor are skipped. ActRows counts the
// rows that pass the scan predicate, with or without a pushed-down probe.
func (s *SEScan) NextBatch(b *Batch) (int, error) {
	for {
		ok, err := s.visit.next()
		if err != nil || !ok {
			return 0, err
		}
		s.stats.ActRows += int64(s.visit.passed)
		b.Rows = s.visit.batch.Rows
		b.Sel = s.visit.survivors(b.Sel)
		if len(b.Sel) == 0 {
			continue
		}
		return len(b.Sel), nil
	}
}

// lateMatch is the RE→SE callback of partial bit-vector filters: it tells
// the join-filter monitors that a row on the scan's current page matched
// after it streamed by. The merge join calls it for its inner lookahead row,
// which always comes from the batch the scan delivered last.
func (s *SEScan) lateMatch() {
	for _, m := range s.visit.monitors {
		m.safeLateMatch(s.visit.batch.PID)
	}
}

// Close implements Operator.
func (s *SEScan) Close() error {
	if s.visit.it != nil {
		s.visit.it.Close()
	}
	return nil
}

// Schema implements Operator.
func (s *SEScan) Schema() *tuple.Schema { return s.tab.Schema }

// Stats implements Operator.
func (s *SEScan) Stats() *OpStats { return &s.stats }

// CoveringScan scans every leaf of a secondary index whose columns cover the
// query; no table pages are touched, so table-page DPC monitors cannot be
// attached here (the monitor planner reports them unsatisfiable).
type CoveringScan struct {
	ctx    *Context
	ix     *catalog.Index
	pred   expr.Conjunction // bound to the index schema
	cc     expr.Compiled    // type-specialized pred, when compilable
	schema *tuple.Schema
	stats  OpStats

	it       *catalog.EntryIter
	lastLeaf storage.PageID // leaf of the previous entry, for page-granular polling
	started  bool

	// Batch arena: qualifying entries' values, cut into rows at bounds.
	vals   []tuple.Value
	bounds []int
	rows   []tuple.Row
}

// NewCoveringScan builds a covering scan of ix. pred must be bound to the
// index-column schema.
func NewCoveringScan(ctx *Context, ix *catalog.Index, pred expr.Conjunction, schema *tuple.Schema) *CoveringScan {
	return &CoveringScan{
		ctx: ctx, ix: ix, pred: pred, cc: compilePred(ctx, pred), schema: schema,
		stats: OpStats{Label: "CoveringScan(" + ix.Table.Name + "." + ix.Name + ")"},
	}
}

// Open implements Operator.
func (s *CoveringScan) Open() error {
	it, err := s.ix.SeekRange(expr.KeyRange{}) // full index scan
	if err != nil {
		return err
	}
	s.it = it
	return nil
}

// NextBatch implements Operator. Entries are judged one at a time and the
// scan stops at the consumer's row cap, so a LIMIT reads no entry past its
// last row. Cancellation is polled once per index leaf.
func (s *CoveringScan) NextBatch(b *Batch) (int, error) {
	s.vals = s.vals[:0]
	s.bounds = s.bounds[:0]
	for len(s.bounds) < b.limit() && s.it.Next() {
		if leaf := s.it.LeafPage(); !s.started || leaf != s.lastLeaf {
			if err := s.ctx.interrupted(); err != nil {
				return 0, err
			}
			s.started = true
			s.lastLeaf = leaf
		}
		s.ctx.touch(1)
		lo := len(s.vals)
		vals := append(s.vals, s.it.Values()...)
		if !satisfies(s.cc, s.pred, vals[lo:]) {
			s.vals = vals[:lo] // discard the entry, keep the grown capacity
			continue
		}
		s.vals = vals
		s.bounds = append(s.bounds, len(vals))
	}
	if err := s.it.Err(); err != nil {
		return 0, err
	}
	s.rows = sliceRows(s.rows, s.vals, s.bounds)
	b.Rows = s.rows
	b.Sel = identSel(b.Sel, len(s.rows))
	s.stats.ActRows += int64(len(s.rows))
	return len(s.rows), nil
}

// Close implements Operator.
func (s *CoveringScan) Close() error {
	if s.it != nil {
		s.it.Close()
	}
	return nil
}

// Schema implements Operator.
func (s *CoveringScan) Schema() *tuple.Schema { return s.schema }

// Stats implements Operator.
func (s *CoveringScan) Stats() *OpStats { return &s.stats }
