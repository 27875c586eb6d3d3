package opt

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// Query is a parsed single-table or two-table join query of the shape the
// paper's workloads use:
//
//	SELECT <agg>(<col>) FROM t [, t2] WHERE <conjuncts> [AND t.jc = t2.jc]
type Query struct {
	Table string
	Pred  expr.Conjunction // selection on Table

	// Aggregate form: Agg/AggCol (when Star and SelectCols are unset).
	Agg    plan.AggFunc
	AggCol string // "" = COUNT(*)

	// Projection form: SELECT * or an explicit column list, with optional
	// ORDER BY and LIMIT.
	Star       bool
	SelectCols []string
	OrderBy    string
	OrderDesc  bool
	Limit      int // 0 = unlimited

	// Grouped form: SELECT <GroupBy>, AGG(AggCol) ... GROUP BY <GroupBy>.
	GroupBy string

	// Join part (nil Table2 means single-table).
	Table2   string
	Pred2    expr.Conjunction // selection on Table2
	JoinCol  string           // column of Table
	JoinCol2 string           // column of Table2

	// TemplateKey memoizes the query's structural key (sql.QueryKey) when
	// the query came from a prepared template: the shape never changes
	// across bindings, so per-execution consumers (the plan cache) can skip
	// re-rendering it. Empty means not memoized.
	TemplateKey string
}

// IsJoin reports whether the query joins two tables.
func (q *Query) IsJoin() bool { return q.Table2 != "" }

// IsProjection reports whether the query returns rows rather than one
// aggregate.
func (q *Query) IsProjection() bool {
	return (q.Star || len(q.SelectCols) > 0) && q.GroupBy == ""
}

// IsGrouped reports whether the query aggregates per group.
func (q *Query) IsGrouped() bool { return q.GroupBy != "" }

// Optimizer chooses plans using table statistics, the analytical DPC model,
// and a cost model driven by the same I/O constants as the simulated disk.
// Injected cardinalities and page counts override the analytical estimates —
// the interface through which execution feedback re-enters optimization
// (§V-A).
//
// Concurrency: mu guards every map. Exported methods lock (planning and
// estimation take the read lock, feedback mutations the write lock);
// unexported helpers assume the caller holds it. Every feedback mutation
// also fires the invalidation hook, so the engine's plan cache learns that
// plans costed under the old statistics are stale.
type Optimizer struct {
	cat       *catalog.Catalog
	io        storage.IOModel
	cpuPerRow time.Duration

	mu sync.RWMutex
	// hook, when set, is called (with mu held) after each feedback
	// mutation with the affected table name, or "" for whole-optimizer
	// mutations that invalidate everything.
	hook func(table string)

	stats   map[string]*TableStats
	cardInj map[string]float64 // canonical (table, pred) -> rows
	dpcInj  map[string]float64 // canonical (table, pred) -> pages
	// dpcHist holds the self-tuning page-count histograms (§VI future
	// work, implemented here): one per (table, column), fed by
	// RecordDPCObservation and consulted for single-column range
	// predicates that have no exact injection.
	dpcHist map[string]Learned[*core.DPCHistogram]
	// joinCurve holds the learned join-DPC curves (§VI's page-count
	// statistics over join expressions): one per (inner table, join
	// column), mapping matching inner rows to distinct pages.
	joinCurve map[string]Learned[*core.JoinDPCCurve]
}

// Learned is a page-count statistic learned from execution feedback — a
// histogram or a join curve — under the table and column spelling it was
// first recorded with. A statistic exists only once it holds an
// observation.
type Learned[T any] struct {
	Table, Column string
	Stat          T
}

// New creates an optimizer over cat with the given device and CPU model.
func New(cat *catalog.Catalog, io storage.IOModel, cpuPerRow time.Duration) *Optimizer {
	return &Optimizer{
		cat: cat, io: io, cpuPerRow: cpuPerRow,
		stats:     make(map[string]*TableStats),
		cardInj:   make(map[string]float64),
		dpcInj:    make(map[string]float64),
		dpcHist:   make(map[string]Learned[*core.DPCHistogram]),
		joinCurve: make(map[string]Learned[*core.JoinDPCCurve]),
	}
}

// SetInvalidationHook registers fn to be called after every feedback
// mutation with the affected table name ("" = everything). The engine uses
// it to bump plan-cache epochs; the hook must not call back into the
// optimizer (it runs under the optimizer's lock).
func (o *Optimizer) SetInvalidationHook(fn func(table string)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.hook = fn
}

// invalidate fires the hook. Callers hold mu; the hook runs after the
// mutation it reports, so a concurrent planner either sees the old state
// with the old epoch (and its entry is invalidated by the bump) or the new
// state — never new-epoch-with-old-state.
func (o *Optimizer) invalidate(table string) {
	if o.hook != nil {
		o.hook(table)
	}
}

// AnalyzeTable builds (or rebuilds) statistics for a table.
func (o *Optimizer) AnalyzeTable(name string) error {
	tab, ok := o.cat.Table(name)
	if !ok {
		return fmt.Errorf("opt: no table %q", name)
	}
	// The statistics scan is slow; run it before taking the lock.
	ts, err := Analyze(tab)
	if err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stats[strings.ToLower(name)] = ts
	o.invalidate(name)
	return nil
}

// TableStats returns the statistics for a table, if analyzed. The returned
// statistics are immutable (AnalyzeTable replaces the pointer wholesale).
func (o *Optimizer) TableStats(name string) (*TableStats, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	ts, ok := o.stats[strings.ToLower(name)]
	return ts, ok
}

// InjectCardinality forces the row estimate for (table, pred) — the
// paper's methodology injects exact cardinalities first, isolating DPC as
// the variable (§V-B).
func (o *Optimizer) InjectCardinality(table string, pred expr.Conjunction, rows float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cardInj[core.Key(table, pred)] = rows
	o.invalidate(table)
}

// InjectDPC forces the distinct-page-count estimate for (table, pred),
// typically with a value obtained from execution feedback.
func (o *Optimizer) InjectDPC(table string, pred expr.Conjunction, pages float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dpcInj[core.Key(table, pred)] = pages
	o.invalidate(table)
}

// HasInjectedDPC reports whether an exact fed-back page count is currently
// injected for (table, pred).
func (o *Optimizer) HasInjectedDPC(table string, pred expr.Conjunction) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, ok := o.dpcInj[core.Key(table, pred)]
	return ok
}

// ClearInjections drops all injected values. Self-tuning DPC histograms
// survive: they are learned statistics, not per-query hints.
func (o *Optimizer) ClearInjections() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cardInj = make(map[string]float64)
	o.dpcInj = make(map[string]float64)
	o.invalidate("")
}

// ClearDPCHistograms drops the learned page-count histograms and join
// curves.
func (o *Optimizer) ClearDPCHistograms() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dpcHist = make(map[string]Learned[*core.DPCHistogram])
	o.joinCurve = make(map[string]Learned[*core.JoinDPCCurve])
	o.invalidate("")
}

// DropTableFeedback removes every learned statistic and injection for the
// table: exact injections, page-count histograms, and join curves. Call it
// when the table's data changes — stale page counts are worse than the
// analytical model, because they carry false confidence.
func (o *Optimizer) DropTableFeedback(table string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	defer o.invalidate(table)
	prefix := strings.ToLower(table) + "|"
	for _, m := range []map[string]float64{o.cardInj, o.dpcInj} {
		for k := range m {
			if strings.HasPrefix(k, prefix) {
				delete(m, k)
			}
		}
	}
	for k := range o.dpcHist {
		if strings.HasPrefix(k, prefix) {
			delete(o.dpcHist, k)
		}
	}
	for k := range o.joinCurve {
		if strings.HasPrefix(k, prefix) {
			delete(o.joinCurve, k)
		}
	}
}

// RecordJoinDPCObservation feeds one observed (matching inner rows, DPC)
// point into the join curve for (inner table, join column).
func (o *Optimizer) RecordJoinDPCObservation(table, joinCol string, matchRows, dpc int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	defer o.invalidate(table)
	key := strings.ToLower(table) + "|" + strings.ToLower(joinCol)
	c, ok := o.joinCurve[key]
	if !ok {
		c = Learned[*core.JoinDPCCurve]{table, joinCol, core.NewJoinDPCCurve()}
	}
	if c.Stat.Add(core.JoinDPCPoint{Rows: matchRows, DPC: dpc}) {
		o.joinCurve[key] = c
	}
}

// JoinDPCCurve returns the learned curve for (table, joinCol), if any.
func (o *Optimizer) JoinDPCCurve(table, joinCol string) (*core.JoinDPCCurve, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	c, ok := o.joinCurve[strings.ToLower(table)+"|"+strings.ToLower(joinCol)]
	return c.Stat, ok
}

// JoinDPCCurves lists the learned join curves, ordered by table then join
// column as first spelled.
func (o *Optimizer) JoinDPCCurves() []Learned[*core.JoinDPCCurve] {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return sortedLearned(o.joinCurve)
}

// joinPages resolves the DPC for an INL join fetching matchRows rows from
// the inner table: the learned curve, else the Mackert-Lohman analytical
// model.
func (o *Optimizer) joinPages(table, joinCol string, matchRows float64, ts *TableStats) float64 {
	// Direct map access, not JoinDPCCurve: the caller holds mu.
	if c, ok := o.joinCurve[strings.ToLower(table)+"|"+strings.ToLower(joinCol)]; ok {
		if est, eok := c.Stat.Estimate(matchRows, ts.Pages); eok {
			return est
		}
	}
	return MackertLohmanINL(matchRows, float64(ts.Rows), float64(ts.Pages))
}

// RecordDPCObservation feeds one observed (column range, rows, DPC) fact
// into the table/column's self-tuning page-count histogram. Open-ended
// ranges are clipped to the column's observed min/max so overlap weighting
// stays meaningful.
func (o *Optimizer) RecordDPCObservation(table, col string, lo, hi int64, rows, dpc int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	defer o.invalidate(table)
	ts, ok := o.stats[strings.ToLower(table)]
	if ok {
		if cs, err := ts.Column(col); err == nil && cs.Hist != nil && cs.Hist.Total > 0 &&
			cs.Hist.Min.Kind != tuple.KindString {
			if lo < cs.Hist.Min.Int {
				lo = cs.Hist.Min.Int
			}
			if hi > cs.Hist.Max.Int {
				hi = cs.Hist.Max.Int
			}
		}
	}
	key := strings.ToLower(table) + "|" + strings.ToLower(col)
	h, ok := o.dpcHist[key]
	if !ok {
		h = Learned[*core.DPCHistogram]{table, col, core.NewDPCHistogram()}
	}
	if h.Stat.Add(core.DPCObservation{Lo: lo, Hi: hi, Rows: rows, DPC: dpc}) {
		o.dpcHist[key] = h
	}
}

// DPCHistogram returns the learned histogram for (table, col), if any.
func (o *Optimizer) DPCHistogram(table, col string) (*core.DPCHistogram, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	h, ok := o.dpcHist[strings.ToLower(table)+"|"+strings.ToLower(col)]
	return h.Stat, ok
}

// DPCHistograms lists the learned page-count histograms, ordered by table
// then column as first spelled.
func (o *Optimizer) DPCHistograms() []Learned[*core.DPCHistogram] {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return sortedLearned(o.dpcHist)
}

// sortedLearned lists m's statistics by (Table, Column). Keys are unique
// case-insensitively, so the order is total and exports are deterministic.
func sortedLearned[T any](m map[string]Learned[T]) []Learned[T] {
	out := make([]Learned[T], 0, len(m))
	for _, l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// EstimateCardinality returns the optimizer's row estimate for (table,
// pred), honoring injections. It is the value a DBA compares against the
// actual cardinality in the statistics output.
func (o *Optimizer) EstimateCardinality(table string, pred expr.Conjunction) (float64, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	ts, ok := o.stats[strings.ToLower(table)]
	if !ok {
		return 0, fmt.Errorf("opt: table %q not analyzed", table)
	}
	return o.cardinality(table, ts, pred), nil
}

// EstimateDPC returns the optimizer's distinct-page-count estimate for
// (table, pred), honoring injections — the "estimated" half of the paper's
// estimated-vs-actual diagnostic.
func (o *Optimizer) EstimateDPC(table string, pred expr.Conjunction) (float64, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	ts, ok := o.stats[strings.ToLower(table)]
	if !ok {
		return 0, fmt.Errorf("opt: table %q not analyzed", table)
	}
	rows := o.cardinality(table, ts, pred)
	return o.estimateDPC(table, ts, pred, rows), nil
}

// EstimateINLDPC returns the optimizer's estimate of the distinct pages of
// inner fetched by an INL join probing with outerRows rows, honoring a
// learned join-DPC curve.
func (o *Optimizer) EstimateINLDPC(inner, innerCol string, outerRows float64) (float64, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	ts, ok := o.stats[strings.ToLower(inner)]
	if !ok {
		return 0, fmt.Errorf("opt: table %q not analyzed", inner)
	}
	matchRows := outerRows * float64(ts.Rows) / math.Max(float64(ts.DistinctValues(innerCol)), 1)
	return o.joinPages(inner, innerCol, matchRows, ts), nil
}

// cardinality estimates qualifying rows for (table, pred), preferring an
// injected value.
func (o *Optimizer) cardinality(table string, ts *TableStats, pred expr.Conjunction) float64 {
	if v, ok := o.cardInj[core.Key(table, pred)]; ok {
		return v
	}
	return ts.Selectivity(pred) * float64(ts.Rows)
}

// estimateDPC estimates the distinct pages containing rows that satisfy
// pred. Precedence: an injected (fed-back) exact value; then the
// self-tuning page-count histogram, when the predicate is a range on a
// column with feedback history; then the analytical Yao model.
func (o *Optimizer) estimateDPC(table string, ts *TableStats, pred expr.Conjunction, rows float64) float64 {
	if v, ok := o.dpcInj[core.Key(table, pred)]; ok {
		return v
	}
	if col, lo, hi, ok := predValueRange(pred); ok {
		// Direct map access, not DPCHistogram: the caller holds mu.
		if h, hok := o.dpcHist[strings.ToLower(table)+"|"+strings.ToLower(col)]; hok {
			if est, eok := h.Stat.EstimateRange(lo, hi, rows, ts.RowsPerPage, ts.Pages); eok {
				return est
			}
		}
	}
	return YaoPages(rows, float64(ts.Rows), float64(ts.Pages))
}

// predValueRange extracts the combined numeric value range of a predicate
// that constrains exactly one column with range-convertible atoms.
func predValueRange(pred expr.Conjunction) (col string, lo, hi int64, ok bool) {
	cols := pred.Columns()
	if len(cols) != 1 || len(pred.Atoms) == 0 {
		return "", 0, 0, false
	}
	lo, hi = math.MinInt64, math.MaxInt64
	for _, a := range pred.Atoms {
		alo, ahi, aok := core.ObservationFromAtomRange(a.Op.String(), a.Val, a.Val2)
		if !aok {
			return "", 0, 0, false
		}
		if alo > lo {
			lo = alo
		}
		if ahi < hi {
			hi = ahi
		}
	}
	if hi < lo {
		return "", 0, 0, false
	}
	return cols[0], lo, hi, true
}

// --- cost model -------------------------------------------------------

// seqCost is the simulated time to read n pages sequentially.
func (o *Optimizer) seqCost(pages float64) time.Duration {
	return time.Duration(pages * float64(o.io.SeqRead))
}

// randCost is the simulated time for n random page reads.
func (o *Optimizer) randCost(pages float64) time.Duration {
	return time.Duration(pages * float64(o.io.RandomRead))
}

// cpuCost is the simulated CPU time to process n rows.
func (o *Optimizer) cpuCost(rows float64) time.Duration {
	return time.Duration(rows * float64(o.cpuPerRow))
}

// scanCost: one seek + sequential read of all data pages + CPU on all rows.
func (o *Optimizer) scanCost(ts *TableStats) time.Duration {
	return o.io.RandomRead + o.seqCost(float64(ts.Pages)-1) + o.cpuCost(float64(ts.Rows))
}

// seekCost: descend the index, read the qualifying leaf fraction, then one
// random fetch per distinct data page plus CPU per fetched row.
func (o *Optimizer) seekCost(ix *catalog.Index, matchRows, dpc float64, ts *TableStats) time.Duration {
	leafFrac := matchRows / math.Max(float64(ts.Rows), 1)
	leafPages := leafFrac * float64(ix.LeafPages())
	c := o.randCost(float64(ix.Height())) // root-to-leaf descent
	c += o.seqCost(leafPages)
	c += o.randCost(dpc)
	c += o.cpuCost(matchRows)
	return c
}

// --- single-table planning --------------------------------------------

// candidate is one costed access path.
type candidate struct {
	node plan.Node
	cost time.Duration
}

// optimizeSingle picks the cheapest access path for a single-table query
// and wraps it in the query's output shape (aggregate, or
// projection/order/limit).
func (o *Optimizer) optimizeSingle(q *Query) (plan.Node, error) {
	need, err := o.neededColumns(q)
	if err != nil {
		return nil, err
	}
	access, err := o.accessPathCovering(q.Table, q.Pred, need)
	if err != nil {
		return nil, err
	}
	return o.finish(q, access)
}

// neededColumns lists every column the query's output shape requires from
// the access path (predicate columns are implicit in covering checks).
func (o *Optimizer) neededColumns(q *Query) ([]string, error) {
	need := q.Pred.Columns()
	switch {
	case q.Star:
		tab, ok := o.cat.Table(q.Table)
		if !ok {
			return nil, fmt.Errorf("opt: no table %q", q.Table)
		}
		for _, c := range tab.Schema.Columns() {
			need = append(need, c.Name)
		}
	case len(q.SelectCols) > 0:
		need = append(need, q.SelectCols...)
	case q.AggCol != "":
		need = append(need, q.AggCol)
	}
	if q.IsGrouped() && q.AggCol != "" {
		need = append(need, q.AggCol)
	}
	if q.OrderBy != "" {
		need = append(need, q.OrderBy)
	}
	if q.GroupBy != "" {
		need = append(need, q.GroupBy)
	}
	return need, nil
}

// finish wraps the body (access path or join) in the query's output shape.
func (o *Optimizer) finish(q *Query, body plan.Node) (plan.Node, error) {
	if q.IsGrouped() {
		g, err := plan.NewGroupAgg(body, q.GroupBy, q.Agg, q.AggCol)
		if err != nil {
			return nil, err
		}
		g.Estm = plan.Estimates{Rows: body.Est().Rows / 10, Cost: body.Est().Cost}
		var node plan.Node = g
		if q.Limit > 0 {
			l := &plan.Limit{Input: node, N: q.Limit}
			l.Estm = g.Estm
			node = l
		}
		return node, nil
	}
	if !q.IsProjection() {
		agg := plan.NewAgg(body, q.Agg, q.AggCol)
		agg.Estm = plan.Estimates{Rows: 1, Cost: body.Est().Cost}
		return agg, nil
	}
	node := body
	if q.OrderBy != "" {
		s := &plan.Sort{Input: node, Cols: []string{q.OrderBy}, Desc: q.OrderDesc}
		s.Estm = plan.Estimates{
			Rows: node.Est().Rows,
			Cost: node.Est().Cost + o.cpuCost(node.Est().Rows*math.Log2(math.Max(node.Est().Rows, 2))),
		}
		node = s
	}
	// The limit goes below the projection (they commute): the projection then
	// materializes, and is charged CPU for, only the rows that survive it.
	// Under the limit it would project the whole page a scan hands up, since
	// scans deliver pages whatever the limit's row cap.
	if q.Limit > 0 {
		l := &plan.Limit{Input: node, N: q.Limit}
		l.Estm = plan.Estimates{Rows: math.Min(float64(q.Limit), node.Est().Rows), Cost: node.Est().Cost}
		node = l
	}
	cols := q.SelectCols
	if q.Star {
		s := node.OutSchema()
		cols = make([]string, s.NumColumns())
		for i := range cols {
			cols[i] = s.Column(i).Name
		}
	}
	p, err := plan.NewProject(node, cols)
	if err != nil {
		return nil, err
	}
	p.Estm = plan.Estimates{Rows: node.Est().Rows, Cost: node.Est().Cost}
	return p, nil
}

// accessPathCovering extends accessPath with covering index scans: when an
// index's key columns contain every column the query needs, scanning the
// (narrower) index replaces touching the table at all — the "Scan of a
// Covering Index" plan of §III.
func (o *Optimizer) accessPathCovering(table string, pred expr.Conjunction, needCols []string) (plan.Node, error) {
	base, err := o.accessPath(table, pred)
	if err != nil {
		return nil, err
	}
	tab, _ := o.cat.Table(table)
	ts := o.stats[strings.ToLower(table)]
	rows := o.cardinality(table, ts, pred)
	best := base
	for _, ix := range tab.Indexes() {
		if !ix.Covers(needCols) {
			continue
		}
		ixSchema, err := indexSchema(tab, ix)
		if err != nil {
			continue
		}
		bound, err := pred.Bind(ixSchema)
		if err != nil {
			continue
		}
		cost := o.io.RandomRead + o.seqCost(float64(ix.LeafPages())-1) +
			o.cpuCost(float64(ts.Rows))
		if cost >= best.Est().Cost {
			continue
		}
		node := &plan.CoveringScan{Tab: tab, Index: ix, Pred: bound, Schem: ixSchema}
		node.Estm = plan.Estimates{Rows: rows, Cost: cost}
		best = node
	}
	return best, nil
}

// indexSchema builds the schema of an index's key columns.
func indexSchema(tab *catalog.Table, ix *catalog.Index) (*tuple.Schema, error) {
	cols := make([]tuple.Column, len(ix.Cols))
	for i, c := range ix.Cols {
		ord, ok := tab.Schema.Ordinal(c)
		if !ok {
			return nil, fmt.Errorf("opt: index column %q missing", c)
		}
		cols[i] = tab.Schema.Column(ord)
	}
	return tuple.NewSchema(cols...), nil
}

// accessPath enumerates Scan, IndexSeek (per usable index), and
// IndexIntersection (per usable index pair) and returns the cheapest.
func (o *Optimizer) accessPath(table string, pred expr.Conjunction) (plan.Node, error) {
	tab, ok := o.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("opt: no table %q", table)
	}
	ts, ok := o.stats[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("opt: table %q not analyzed", table)
	}
	bound, err := pred.Bind(tab.Schema)
	if err != nil {
		return nil, err
	}
	rows := o.cardinality(table, ts, pred)

	var best candidate
	// Table scan / clustered index scan.
	scanNode := &plan.Scan{Tab: tab, Pred: bound}
	scanNode.Estm = plan.Estimates{Rows: rows, Cost: o.scanCost(ts)}
	best = candidate{node: scanNode, cost: scanNode.Estm.Cost}

	// Clustered index range seek: a predicate on the clustering key reads
	// exactly the qualifying leaf range sequentially. The qualifying rows
	// are contiguous by construction, so no DPC estimate is involved —
	// this path is immune to the clustering estimation error.
	if tab.Kind == catalog.KindClustered {
		if ranges, matched, ok := expr.IndexRanges(pred, tab.ClusterCols); ok && len(ranges) == 1 {
			rangePred := pred.Subset(matched...)
			matchRows := o.cardinality(table, ts, rangePred)
			leafPages := matchRows / math.Max(ts.RowsPerPage, 1)
			cost := o.randCost(float64(tab.ClusterHeight())) +
				o.seqCost(leafPages) + o.cpuCost(matchRows)
			node := &plan.Scan{Tab: tab, Pred: bound, ClusterRange: &ranges[0]}
			node.Estm = plan.Estimates{Rows: rows, Cost: cost}
			if cost < best.cost {
				best = candidate{node: node, cost: cost}
			}
		}
	}

	// Index seeks.
	type usable struct {
		ix      *catalog.Index
		ranges  []expr.KeyRange
		matched []int
	}
	var usables []usable
	for _, ix := range tab.Indexes() {
		ranges, matched, ok := expr.IndexRanges(pred, ix.Cols)
		if !ok {
			continue
		}
		usables = append(usables, usable{ix, ranges, matched})
		// Rows matching just the index-enforced atoms (what the fetch
		// must touch).
		idxPred := pred.Subset(matched...)
		matchRows := o.cardinality(table, ts, idxPred)
		dpc := o.estimateDPC(table, ts, idxPred, matchRows)
		node := &plan.Seek{Tab: tab, Index: ix, Ranges: ranges, Pred: bound}
		node.Estm = plan.Estimates{Rows: rows, DPC: dpc, Cost: o.seekCost(ix, matchRows, dpc, ts)}
		if node.Estm.Cost < best.cost {
			best = candidate{node: node, cost: node.Estm.Cost}
		}
	}

	// Index intersections over pairs of usable indexes on distinct columns.
	for i := 0; i < len(usables); i++ {
		for j := i + 1; j < len(usables); j++ {
			a, b := usables[i], usables[j]
			if strings.EqualFold(a.ix.Cols[0], b.ix.Cols[0]) {
				continue
			}
			predA := pred.Subset(a.matched...)
			predB := pred.Subset(b.matched...)
			rowsA := o.cardinality(table, ts, predA)
			rowsB := o.cardinality(table, ts, predB)
			// Intersected RID count under independence.
			interRows := rowsA * rowsB / math.Max(float64(ts.Rows), 1)
			interPred := pred.Subset(append(append([]int{}, a.matched...), b.matched...)...)
			dpc := o.estimateDPC(table, ts, interPred, interRows)
			cost := o.randCost(float64(a.ix.Height() + b.ix.Height()))
			cost += o.seqCost(rowsA / math.Max(float64(ts.Rows), 1) * float64(a.ix.LeafPages()))
			cost += o.seqCost(rowsB / math.Max(float64(ts.Rows), 1) * float64(b.ix.LeafPages()))
			cost += o.randCost(dpc)
			cost += o.cpuCost(rowsA + rowsB + interRows)
			node := &plan.Intersect{Tab: tab, IndexA: a.ix, RangesA: a.ranges,
				IndexB: b.ix, RangesB: b.ranges, Pred: bound}
			node.Estm = plan.Estimates{Rows: rows, DPC: dpc, Cost: cost}
			if node.Estm.Cost < best.cost {
				best = candidate{node: node, cost: node.Estm.Cost}
			}
		}
	}
	return best.node, nil
}

// --- join planning -----------------------------------------------------

// optimizeJoin picks the cheapest join strategy for a two-table query:
// Hash Join (either build side), Index Nested Loops (either inner, when an
// index on the join column exists), or Merge Join (when both sides are
// clustered on their join columns, or with explicit sorts).
func (o *Optimizer) optimizeJoin(q *Query) (plan.Node, error) {
	if !q.IsJoin() {
		return nil, fmt.Errorf("opt: optimizeJoin on single-table query")
	}
	tabA, ok := o.cat.Table(q.Table)
	if !ok {
		return nil, fmt.Errorf("opt: no table %q", q.Table)
	}
	tabB, ok := o.cat.Table(q.Table2)
	if !ok {
		return nil, fmt.Errorf("opt: no table %q", q.Table2)
	}
	tsA, okA := o.stats[strings.ToLower(q.Table)]
	tsB, okB := o.stats[strings.ToLower(q.Table2)]
	if !okA || !okB {
		return nil, fmt.Errorf("opt: join tables must be analyzed")
	}

	side := func(tab *catalog.Table, ts *TableStats, pred expr.Conjunction, joinCol string) (plan.Node, float64, error) {
		n, err := o.accessPath(tab.Name, pred)
		if err != nil {
			return nil, 0, err
		}
		return n, n.Est().Rows, nil
	}
	nodeA, rowsA, err := side(tabA, tsA, q.Pred, q.JoinCol)
	if err != nil {
		return nil, err
	}
	nodeB, rowsB, err := side(tabB, tsB, q.Pred2, q.JoinCol2)
	if err != nil {
		return nil, err
	}

	ndvA := float64(tsA.DistinctValues(q.JoinCol))
	ndvB := float64(tsB.DistinctValues(q.JoinCol2))
	joinRows := rowsA * rowsB / math.Max(math.Max(ndvA, ndvB), 1)

	var best candidate

	consider := func(n plan.Node, cost time.Duration) {
		if best.node == nil || cost < best.cost {
			best = candidate{node: n, cost: cost}
		}
	}

	// Hash joins: build on either side (build the smaller input).
	mkHash := func(build plan.Node, buildCol, buildName string, probe plan.Node, probeCol, probeName string, buildRows, probeRows float64) {
		n := &plan.Join{
			Method: plan.HashJoin, Outer: build, Inner: probe,
			OuterCol: buildCol, InnerCol: probeCol,
			Schem: plan.JoinSchema(buildName, build.OutSchema(), probeName, probe.OutSchema()),
		}
		cost := build.Est().Cost + probe.Est().Cost + o.cpuCost(buildRows*2+probeRows+joinRows)
		n.Estm = plan.Estimates{Rows: joinRows, Cost: cost}
		consider(n, cost)
	}
	mkHash(nodeA, q.JoinCol, q.Table, nodeB, q.JoinCol2, q.Table2, rowsA, rowsB)
	mkHash(nodeB, q.JoinCol2, q.Table2, nodeA, q.JoinCol, q.Table, rowsB, rowsA)

	// INL joins: outer drives index lookups on the inner's join column.
	mkINL := func(outer plan.Node, outerCol, outerName string, innerTab *catalog.Table,
		innerTS *TableStats, innerPred expr.Conjunction, innerCol string, outerRows float64) error {
		ix := indexOn(innerTab, innerCol)
		if ix == nil {
			return nil
		}
		boundInner, err := innerPred.Bind(innerTab.Schema)
		if err != nil {
			return err
		}
		// Matching inner rows across all probes.
		matchRows := outerRows * float64(innerTS.Rows) / math.Max(float64(innerTS.DistinctValues(innerCol)), 1)
		dpc := o.joinPages(innerTab.Name, innerCol, matchRows, innerTS)
		n := &plan.Join{
			Method: plan.INLJoin, Outer: outer,
			OuterCol: outerCol, InnerCol: innerCol,
			InnerTab: innerTab, InnerIndex: ix, InnerPred: boundInner,
			Schem: plan.JoinSchema(outerName, outer.OutSchema(), innerTab.Name, innerTab.Schema),
		}
		cost := outer.Est().Cost
		cost += o.randCost(dpc) // distinct data pages
		// Index navigation: upper levels cache after the first probes; the
		// leaf pages covering the probed key range are the real I/O. Probe
		// keys from a range-restricted outer are near-contiguous in key
		// space, so leaves touched ~ matching entries / entries-per-leaf.
		entriesPerLeaf := float64(innerTS.Rows) / math.Max(float64(ix.LeafPages()), 1)
		leafPages := matchRows / math.Max(entriesPerLeaf, 1)
		cost += o.randCost(float64(ix.Height()) + leafPages)
		cost += o.cpuCost(outerRows + matchRows)
		n.Estm = plan.Estimates{Rows: joinRows, DPC: dpc, Cost: cost}
		consider(n, cost)
		return nil
	}
	if err := mkINL(nodeA, q.JoinCol, q.Table, tabB, tsB, q.Pred2, q.JoinCol2, rowsA); err != nil {
		return nil, err
	}
	if err := mkINL(nodeB, q.JoinCol2, q.Table2, tabA, tsA, q.Pred, q.JoinCol, rowsB); err != nil {
		return nil, err
	}

	// Merge join: sort whichever side is not already clustered on its join
	// column.
	sortA := !clusteredOn(tabA, q.JoinCol)
	sortB := !clusteredOn(tabB, q.JoinCol2)
	{
		n := &plan.Join{
			Method: plan.MergeJoin, Outer: nodeA, Inner: nodeB,
			OuterCol: q.JoinCol, InnerCol: q.JoinCol2,
			SortOuter: sortA, SortInner: sortB,
			Schem: plan.JoinSchema(q.Table, nodeA.OutSchema(), q.Table2, nodeB.OutSchema()),
		}
		cost := nodeA.Est().Cost + nodeB.Est().Cost + o.cpuCost(rowsA+rowsB+joinRows)
		if sortA {
			cost += o.cpuCost(rowsA * math.Log2(math.Max(rowsA, 2)))
		}
		if sortB {
			cost += o.cpuCost(rowsB * math.Log2(math.Max(rowsB, 2)))
		}
		n.Estm = plan.Estimates{Rows: joinRows, Cost: cost}
		consider(n, cost)
	}

	return o.finish(q, best.node)
}

// Optimize dispatches on the query shape.
func (o *Optimizer) Optimize(q *Query) (plan.Node, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if q.IsJoin() {
		return o.optimizeJoin(q)
	}
	return o.optimizeSingle(q)
}

// indexOn returns an index whose leading column is col, or nil.
func indexOn(tab *catalog.Table, col string) *catalog.Index {
	for _, ix := range tab.Indexes() {
		if strings.EqualFold(ix.Cols[0], col) {
			return ix
		}
	}
	return nil
}

// clusteredOn reports whether the table is clustered with col as the
// leading clustering column (its scan output is ordered by col).
func clusteredOn(tab *catalog.Table, col string) bool {
	return tab.Kind == catalog.KindClustered && len(tab.ClusterCols) > 0 &&
		strings.EqualFold(tab.ClusterCols[0], col)
}
