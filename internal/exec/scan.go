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
	visit  pageVisit
	stats  OpStats

	sel      []int // row path: the current page's survivors, as batch indices
	pos      int   // next sel entry to deliver
	lastRID  storage.RID
	open     bool
	vecNoted bool
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
	return &SEScan{tab: tab, krange: krange,
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

// attach adds a monitor (called by the builder).
func (s *SEScan) attach(m *scanMonitor) { s.visit.monitors = append(s.visit.monitors, m) }

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
	s.visit.it = it
	s.sel = s.sel[:0]
	s.pos = 0
	s.open = true
	return nil
}

// Next implements Operator. The scan is page-batched: each underlying data
// page is pinned once and judged by the shared page visit, and the rows that
// pass stream to the parent from the page batch; a returned row is valid
// until the scan advances past its page.
func (s *SEScan) Next() (tuple.Row, bool, error) {
	for s.pos == len(s.sel) {
		ok, err := s.visit.next()
		if err != nil || !ok {
			return nil, false, err
		}
		s.sel = s.visit.survivors(s.sel)
		s.pos = 0
	}
	i := s.sel[s.pos]
	s.pos++
	s.lastRID = s.visit.batch.RIDs[i]
	s.stats.ActRows++
	return s.visit.batch.Rows[i], true, nil
}

// NextBatch implements BatchOperator: the scan already works page at a time,
// so the batch path simply stops flattening — the page batch's rows are
// handed up directly with a selection vector of the predicate survivors.
// Everything else runs in the page visit, shared verbatim with the row path,
// so the feedback and accounting of the two paths are identical by
// construction.
func (s *SEScan) NextBatch(b *Batch) (int, error) {
	s.visit.ctx.noteVectorized(&s.vecNoted)
	for {
		ok, err := s.visit.next()
		if err != nil || !ok {
			return 0, err
		}
		b.Rows = s.visit.batch.Rows
		b.Sel = s.visit.survivors(b.Sel)
		if len(b.Sel) == 0 {
			continue
		}
		s.stats.ActRows += int64(len(b.Sel))
		s.visit.ctx.noteBatch()
		return len(b.Sel), nil
	}
}

// LastRID returns the RID of the row most recently returned by Next (used by
// the RE→SE callback for partial bit-vector filters).
func (s *SEScan) LastRID() storage.RID { return s.lastRID }

// lateMatch forwards a late join-match notification to join-filter monitors.
func (s *SEScan) lateMatch(rid storage.RID) {
	for _, m := range s.visit.monitors {
		m.safeLateMatch(rid)
	}
}

// Close implements Operator.
func (s *SEScan) Close() error {
	if s.visit.it != nil {
		s.visit.it.Close()
	}
	s.open = false
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
	rowBuf   tuple.Row      // reused output row; valid until the next Next
	lastLeaf storage.PageID // leaf of the previous entry, for page-granular polling
	started  bool
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

// Next implements Operator. Cancellation is polled once per index leaf, and
// the emitted row reuses one buffer: it is valid only until the next Next
// (consumers that keep rows — sorts, joins, the result sink — clone them).
func (s *CoveringScan) Next() (tuple.Row, bool, error) {
	for s.it.Next() {
		if leaf := s.it.LeafPage(); !s.started || leaf != s.lastLeaf {
			if err := s.ctx.interrupted(); err != nil {
				return nil, false, err
			}
			s.started = true
			s.lastLeaf = leaf
		}
		s.ctx.touch(1)
		s.rowBuf = append(s.rowBuf[:0], s.it.Values()...)
		sat := false
		if s.cc.OK() {
			sat = s.cc.Eval(s.rowBuf)
		} else {
			sat = s.pred.Eval(s.rowBuf)
		}
		if sat {
			s.stats.ActRows++
			return s.rowBuf, true, nil
		}
	}
	return nil, false, s.it.Err()
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
