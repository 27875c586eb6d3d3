package exec

import (
	"fmt"
	"strings"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/core"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/tuple"
)

// Execution is a built operator tree plus its attached DPC monitors.
type Execution struct {
	Ctx  *Context
	Root Operator

	cfg       *MonitorConfig
	scanMons  []*scanMonitor
	seekMons  []*seekMonitor
	unsat     []DPCResult
	satisfied map[int]bool // request index -> satisfied
	seedCtr   int64
	opCtr     int32 // next operator id; assignment order is construction order

	// orderSensitive is true while building a subtree whose row order the
	// parent depends on (merge-join inputs without an explicit sort, Limit
	// inputs). Scans in such subtrees stay serial regardless of the
	// requested parallelism; order-erasing operators (Sort, aggregates)
	// reset the flag for their inputs.
	orderSensitive bool
}

// Build instantiates the plan as an operator tree and attaches monitors per
// the §II-B rules: what can be observed depends on what the current plan
// executes. cfg may be nil (no monitoring).
func Build(ctx *Context, root plan.Node, cfg *MonitorConfig) (*Execution, error) {
	e := &Execution{Ctx: ctx, cfg: cfg, satisfied: map[int]bool{}}
	op, err := e.build(root, tuple.AllColumns)
	if err != nil {
		return nil, err
	}
	e.Root = op
	if cfg != nil {
		for i, req := range cfg.Requests {
			if !e.satisfied[i] {
				e.unsat = append(e.unsat, DPCResult{
					Request:   req,
					Mechanism: MechUnsatisfiable,
					OpID:      -1,
					Reason:    "the current plan does not evaluate this expression where page ids are visible (§II-B)",
				})
			}
		}
	}
	return e, nil
}

func (e *Execution) nextSeed() int64 {
	e.seedCtr++
	if e.cfg != nil {
		return e.cfg.Seed*1000 + e.seedCtr
	}
	return e.seedCtr
}

// build constructs the operator for n and wraps it in the panic boundary;
// since children are built through the same path, a panic anywhere in the
// tree is recovered at the deepest operator it escaped from.
//
// need is the column-demand mask of n's output: bit i set when something
// above reads column i (see tuple.DecodeAppendCols). Each operator passes
// its inputs what it and its parent read, so a table scan decodes only
// those columns. The root's output is the result set: every column.
func (e *Execution) build(n plan.Node, need uint64) (Operator, error) {
	op, err := e.buildInner(n, need)
	if err != nil {
		return nil, err
	}
	return e.guard(op), nil
}

// guard wraps op in the panic boundary and assigns its operator id.
// Children are guarded before their parents, so ids are in post-order:
// deterministic for a given plan, independent of whether tracing runs.
// The guard doubles as the tracing hook — it carries the context's
// recorder (nil when tracing is off) and the operator's stats node, so
// emitted spans and the stats tree share ids.
func (e *Execution) guard(op Operator) Operator {
	st := op.Stats()
	st.OpID = e.opCtr
	e.opCtr++
	return &guardOp{inner: op, ctx: e.Ctx, tr: e.Ctx.Trace, st: st}
}

// OperatorCount reports how many operators the built tree contains —
// the count a complete trace's lifetime spans must match.
func (e *Execution) OperatorCount() int { return int(e.opCtr) }

// buildWith builds a child subtree under the given order sensitivity,
// restoring the surrounding value afterwards.
func (e *Execution) buildWith(n plan.Node, ordered bool, need uint64) (Operator, error) {
	prev := e.orderSensitive
	e.orderSensitive = ordered
	op, err := e.build(n, need)
	e.orderSensitive = prev
	return op, err
}

func (e *Execution) buildInner(n plan.Node, need uint64) (Operator, error) {
	switch node := n.(type) {
	case *plan.Scan:
		return e.buildScan(node, need)
	case *plan.CoveringScan:
		op := NewCoveringScan(e.Ctx, node.Index, node.Pred, node.Schem)
		e.setEst(op, n)
		return op, nil
	case *plan.Seek:
		return e.buildSeek(node, need)
	case *plan.Intersect:
		return e.buildIntersect(node, need)
	case *plan.Join:
		return e.buildJoin(node, need)
	case *plan.Sort:
		// The sort re-establishes order, so its input may run in any order.
		ords, err := resolveAll(node.Input.OutSchema(), node.Cols)
		if err != nil {
			return nil, err
		}
		in, err := e.buildWith(node.Input, false, need|ordsMask(ords))
		if err != nil {
			return nil, err
		}
		op := NewSort(e.Ctx, in, ords)
		op.SetDesc(node.Desc)
		e.setEst(op, n)
		op.Stats().Children = []*OpStats{in.Stats()}
		return op, nil
	case *plan.Project:
		ords, err := resolveAll(node.Input.OutSchema(), node.Cols)
		if err != nil {
			return nil, err
		}
		in, err := e.build(node.Input, ordsMask(ords))
		if err != nil {
			return nil, err
		}
		op := NewProject(e.Ctx, in, ords, node.Schem)
		e.setEst(op, n)
		op.Stats().Children = []*OpStats{in.Stats()}
		return op, nil
	case *plan.Limit:
		// Which rows survive a limit depends on input order: keep the
		// subtree serial so results stay deterministic.
		in, err := e.buildWith(node.Input, true, need)
		if err != nil {
			return nil, err
		}
		op, err := NewLimit(in, node.N)
		if err != nil {
			return nil, err
		}
		// A sort right below keeps only the rows the limit passes.
		if so, ok := unwrapOp(in).(*SortOp); ok {
			so.limit = node.N
		}
		e.setEst(op, n)
		op.Stats().Children = []*OpStats{in.Stats()}
		return op, nil
	case *plan.GroupAgg:
		// Hash grouping with commutative aggregates: input order is
		// irrelevant to the (sorted) output.
		gord, err := plan.ResolveColumn(node.Input.OutSchema(), node.GroupCol)
		if err != nil {
			return nil, err
		}
		aord := -1
		if node.AggCol != "" {
			aord, err = plan.ResolveColumn(node.Input.OutSchema(), node.AggCol)
			if err != nil {
				return nil, err
			}
		}
		in, err := e.buildWith(node.Input, false, ordMask(gord)|aggMask(node.Func, aord))
		if err != nil {
			return nil, err
		}
		var fn string
		switch node.Func {
		case plan.CountAgg:
			fn = "count"
		case plan.SumAgg:
			fn = "sum"
		case plan.MinAgg:
			fn = "min"
		case plan.MaxAgg:
			fn = "max"
		}
		op, err := NewGroupAgg(e.Ctx, in, gord, fn, aord, node.Schem)
		if err != nil {
			return nil, err
		}
		e.setEst(op, n)
		op.Stats().Children = []*OpStats{in.Stats()}
		return op, nil
	case *plan.Agg:
		ord := -1
		if node.Col != "" {
			o, err := plan.ResolveColumn(node.Input.OutSchema(), node.Col)
			if err != nil {
				return nil, err
			}
			ord = o
		}
		in, err := e.buildWith(node.Input, false, aggMask(node.Func, ord))
		if err != nil {
			return nil, err
		}
		var fn string
		switch node.Func {
		case plan.CountAgg:
			fn = "count"
		case plan.SumAgg:
			fn = "sum"
		case plan.MinAgg:
			fn = "min"
		case plan.MaxAgg:
			fn = "max"
		}
		op, err := NewAgg(e.Ctx, in, fn, ord, node.Schem)
		if err != nil {
			return nil, err
		}
		// A parallel scan below, bare or running a hash join's probe, folds
		// the aggregate in its workers: no row crosses the exchange.
		var join *OpStats
		src := unwrapOp(in)
		if hj, ok := src.(*HashJoinOp); ok && hj.joined {
			src, join = unwrapOp(hj.probe), hj.Stats()
		}
		if ps, ok := src.(*ParallelScan); ok {
			op.fold = &aggFold{fn: op.fn, ord: op.ord, join: join}
			ps.fold = op.fold
		}
		e.setEst(op, n)
		op.Stats().Children = []*OpStats{in.Stats()}
		return op, nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

// aggMask is what an aggregate reads of column ord: nothing for COUNT, which
// counts rows (the engine has no NULLs), the column for the others.
func aggMask(f plan.AggFunc, ord int) uint64 {
	if f == plan.CountAgg {
		return 0
	}
	return ordMask(ord)
}

// ordsMask is the mask selecting every column in ords.
func ordsMask(ords []int) uint64 {
	var m uint64
	for _, o := range ords {
		m |= ordMask(o)
	}
	return m
}

// splitJoinDemand splits a join's output demand into its inputs' — the
// output is the outer's columns then the inner's — each plus its join key.
// A join output wider than 64 columns has no mask bits for its inner
// columns, so both sides then decode whole.
func splitJoinDemand(need uint64, outer, inner *tuple.Schema, outerOrd, innerOrd int) (uint64, uint64) {
	n := outer.NumColumns()
	if n+inner.NumColumns() > 64 {
		return tuple.AllColumns, tuple.AllColumns
	}
	return need&(1<<uint(n)-1) | ordMask(outerOrd), need>>uint(n) | ordMask(innerOrd)
}

func (e *Execution) setEst(op Operator, n plan.Node) {
	st := op.Stats()
	est := n.Est()
	st.EstRows = est.Rows
	st.EstDPC = est.DPC
}

// monitoredScan is the builder's view of an SE-side scan operator that can
// host DPC monitors and be the inner of a monitored join: the serial SEScan
// and the partition-parallel ParallelScan.
type monitoredScan interface {
	Operator
	Table() *catalog.Table
	attach(*scanMonitor)
	// setDemand sets the columns the plan above reads: the rows handed up
	// carry only those (plus the predicate's and the monitors'), the rest
	// zero-valued.
	setDemand(need uint64)
}

// parallelDegree returns the worker count for a full scan built at this
// point, or 0 when the scan must stay serial: parallelism not requested, or
// the surrounding subtree depends on row order.
func (e *Execution) parallelDegree() int {
	if e.Ctx.Parallelism > 1 && !e.orderSensitive {
		return e.Ctx.Parallelism
	}
	return 0
}

func (e *Execution) buildScan(node *plan.Scan, need uint64) (Operator, error) {
	var op Operator
	var target monitoredScan
	if node.ClusterRange != nil {
		// Range seeks stay serial: partitioning a key range would need leaf
		// boundaries inside the range, and ranges are short by design.
		ss := NewSEClusterRangeScan(e.Ctx, node.Tab, node.Pred, node.ClusterRange)
		op, target = ss, ss
	} else if deg := e.parallelDegree(); deg > 1 {
		ps := NewParallelScan(e.Ctx, node.Tab, node.Pred, deg)
		op, target = ps, ps
	} else {
		ss := NewSEScan(e.Ctx, node.Tab, node.Pred)
		op, target = ss, ss
	}
	target.setDemand(need)
	e.setEst(op, node)
	e.attachScanMonitors(target, node)
	return op, nil
}

// attachScanMonitors plants the §II-B scan-side monitors that the scan of
// node can satisfy. target may be serial or parallel; parallel scans shard
// each monitor per partition and merge at the barrier, so the attachment
// rules are identical.
func (e *Execution) attachScanMonitors(op monitoredScan, node *plan.Scan) {
	if e.cfg == nil {
		return
	}
	for i, req := range e.cfg.Requests {
		if e.satisfied[i] || req.Join || !sameTable(req.Table, node.Tab.Name) {
			continue
		}
		bound, err := req.Pred.Bind(node.Tab.Schema)
		if err != nil {
			e.unsat = append(e.unsat, DPCResult{Request: req, Mechanism: MechUnsatisfiable, OpID: -1, Reason: err.Error()})
			e.satisfied[i] = true
			continue
		}
		if node.ClusterRange != nil {
			// A range scan only sees pages inside the range: the sole
			// observable DPC is that of the plan's own full predicate
			// (rows satisfying it cannot exist outside the range).
			if core.Key(req.Table, req.Pred) != core.Key(node.Tab.Name, node.Pred) {
				continue
			}
			m := &scanMonitor{req: req, kind: monExactPrefix,
				prefixLen: len(node.Pred.Atoms), gc: core.NewGroupedCounter()}
			m.monitorGuard = e.cfg.guard(op.Stats(), MechExactScan)
			op.attach(m)
			e.scanMons = append(e.scanMons, m)
			e.satisfied[i] = true
			continue
		}
		m := &scanMonitor{req: req}
		if req.Pred.IsPrefixOf(node.Pred) {
			// A prefix of the scan predicate: its truth value falls out of
			// short-circuited evaluation — exact counting at no extra cost.
			m.kind = monExactPrefix
			m.prefixLen = len(req.Pred.Atoms)
			m.gc = core.NewGroupedCounter()
		} else {
			// Not a prefix: evaluating it needs short-circuiting turned
			// off, so bound the cost with page sampling (Fig 4).
			m.kind = monSampled
			m.pred = bound
			m.dps = core.NewDPSample(e.cfg.sampleFraction(), e.nextSeed())
		}
		m.monitorGuard = e.cfg.guard(op.Stats(), m.mechanism())
		op.attach(m)
		e.scanMons = append(e.scanMons, m)
		e.satisfied[i] = true
	}
}

func (e *Execution) newSeekMonitor(req DPCRequest, tab *catalog.Table, mech string, host *OpStats) *seekMonitor {
	bits := e.cfg.LinearBits
	if bits == 0 {
		bits = core.DefaultLinearCounterBits(tab.NumPages())
	}
	m := &seekMonitor{req: req, mech: mech, lc: core.NewLinearCounter(bits),
		monitorGuard: e.cfg.guard(host, mech)}
	if e.cfg.CompareSamplingEstimator {
		size := e.cfg.ReservoirSize
		if size <= 0 {
			size = 1024
		}
		m.sd = core.NewSampleDistinct(size, e.nextSeed())
	}
	e.seekMons = append(e.seekMons, m)
	return m
}

func (e *Execution) buildSeek(node *plan.Seek, need uint64) (Operator, error) {
	op := NewIndexSeek(e.Ctx, node.Tab, node.Index, node.Ranges, node.Pred)
	op.setDemand(need)
	e.setEst(op, node)
	if e.cfg == nil {
		return op, nil
	}
	for i, req := range e.cfg.Requests {
		if e.satisfied[i] || req.Join || !sameTable(req.Table, node.Tab.Name) {
			continue
		}
		// An index plan only reveals the DPC of its own full predicate
		// (§II-B): other predicates are never evaluated on all candidate
		// pages here.
		if core.Key(req.Table, req.Pred) != core.Key(node.Tab.Name, node.Pred) {
			continue
		}
		op.attach(e.newSeekMonitor(req, node.Tab, MechLinearCount, op.Stats()))
		e.satisfied[i] = true
	}
	return op, nil
}

func (e *Execution) buildIntersect(node *plan.Intersect, need uint64) (Operator, error) {
	op := NewIndexIntersect(e.Ctx, node.Tab, node.IndexA, node.RangesA, node.IndexB, node.RangesB, node.Pred)
	op.setDemand(need)
	e.setEst(op, node)
	if e.cfg == nil {
		return op, nil
	}
	for i, req := range e.cfg.Requests {
		if e.satisfied[i] || req.Join || !sameTable(req.Table, node.Tab.Name) {
			continue
		}
		if core.Key(req.Table, req.Pred) != core.Key(node.Tab.Name, node.Pred) {
			continue
		}
		op.attach(e.newSeekMonitor(req, node.Tab, MechLinearCount, op.Stats()))
		e.satisfied[i] = true
	}
	return op, nil
}

func (e *Execution) buildJoin(node *plan.Join, need uint64) (Operator, error) {
	if node.Method == plan.INLJoin {
		return e.buildINL(node, need)
	}
	// Merge-join inputs must arrive sorted: a child without an explicit
	// sort below the join delivers in scan order, which partitioned
	// parallelism would destroy. Hash-join children inherit the current
	// sensitivity (the join itself preserves neither input's order).
	outerOrdered := e.orderSensitive
	innerOrdered := e.orderSensitive
	if node.Method == plan.MergeJoin {
		outerOrdered = !node.SortOuter
		innerOrdered = !node.SortInner
	}
	outerOrd, err := plan.ResolveColumn(node.Outer.OutSchema(), node.OuterCol)
	if err != nil {
		return nil, err
	}
	innerOrd, err := plan.ResolveColumn(node.Inner.OutSchema(), node.InnerCol)
	if err != nil {
		return nil, err
	}
	outerNeed, innerNeed := splitJoinDemand(need, node.Outer.OutSchema(), node.Inner.OutSchema(), outerOrd, innerOrd)
	outer, err := e.buildWith(node.Outer, outerOrdered, outerNeed)
	if err != nil {
		return nil, err
	}
	inner, err := e.buildWith(node.Inner, innerOrdered, innerNeed)
	if err != nil {
		return nil, err
	}

	// Optional explicit sorts for merge join (guarded like built operators).
	if node.Method == plan.MergeJoin {
		if node.SortOuter {
			so := NewSort(e.Ctx, outer, []int{outerOrd})
			so.Stats().Children = []*OpStats{outer.Stats()}
			outer = e.guard(so)
		}
		if node.SortInner {
			si := NewSort(e.Ctx, inner, []int{innerOrd})
			si.Stats().Children = []*OpStats{inner.Stats()}
			inner = e.guard(si)
		}
	}

	// Join DPC monitoring: the inner side must bottom out in an SE scan of
	// the requested table (Fig 5's probe-side Table Scan). For a merge
	// join, the filter must also be complete — or correctly partial — by
	// the time the inner scan streams: a blocking Sort on the inner only
	// (with a lazily consumed outer) drains the scan before any outer
	// value enters the filter, so that shape cannot be monitored (§IV
	// covers the other three shapes).
	innerScan := findScan(inner)
	_, innerBlocked := unwrapOp(inner).(*SortOp)
	_, outerBlocking := unwrapOp(outer).(*SortOp)
	if node.Method == plan.MergeJoin && innerBlocked && !outerBlocking {
		innerScan = nil
	}
	var sink *filterSink
	if e.cfg != nil && innerScan != nil {
		for i, req := range e.cfg.Requests {
			if e.satisfied[i] || !req.Join || !sameTable(req.Table, innerScan.Table().Name) {
				continue
			}
			joinOrd, ok := innerScan.Table().Schema.Ordinal(node.InnerCol)
			if !ok {
				continue
			}
			filter := core.NewBitVectorFilter(e.bitvectorBits(innerScan))
			m := &scanMonitor{
				req: req, kind: monJoinFilter,
				filter: filter, joinColOrd: joinOrd,
				dps: core.NewDPSample(e.cfg.sampleFraction(), e.nextSeed()),
			}
			m.monitorGuard = e.cfg.guard(innerScan.Stats(), MechBitVector)
			sink = &filterSink{m: m, f: filter}
			innerScan.attach(m)
			e.scanMons = append(e.scanMons, m)
			e.satisfied[i] = true
			break
		}
	}

	var op Operator
	switch node.Method {
	case plan.HashJoin:
		hj := NewHashJoin(e.Ctx, outer, inner, outerOrd, innerOrd, node.Schem)
		hj.setDemand(outerNeed) // the build keeps only these columns
		if sink != nil {
			hj.SetFilter(sink) // build phase fills it (Fig 5)
		}
		if host, ok := unwrapOp(inner).(probeHost); ok {
			// The probe input is a bare table scan, serial or parallel:
			// after the build completes, the table becomes its semi-join
			// predicate, judged on page bytes.
			hj.pushProbe(host)
		}
		op = hj
	case plan.MergeJoin:
		mj := NewMergeJoin(e.Ctx, outer, inner, outerOrd, innerOrd, node.Schem)
		if sink != nil {
			if so, ok := unwrapOp(outer).(*SortOp); ok {
				// Blocking sort: the filter is complete before the inner
				// scan produces its first row.
				so.SetFilter(sink, outerOrd)
			} else {
				// Partial bit-vector filter, filled as the merge consumes
				// outer rows; late matches flow back to the scan. The
				// inner is unsorted merge input here, hence always serial.
				ss, _ := innerScan.(*SEScan)
				mj.SetFilter(sink, ss)
			}
		}
		op = mj
	default:
		return nil, fmt.Errorf("exec: unsupported join method %v", node.Method)
	}
	e.setEst(op, node)
	op.Stats().Children = []*OpStats{outer.Stats(), inner.Stats()}
	return op, nil
}

// bitvectorBits sizes a join filter: the configured width, or 2 bits per
// inner-table row. Because integer values bucket by value mod width, a
// width at least the join column's domain makes the filter injective on
// dense domains (the §IV exactness condition); 2 bits/row is ~0.25% of a
// 100-byte-row table, within the paper's "less than 1% of the table size".
func (e *Execution) bitvectorBits(innerScan monitoredScan) uint64 {
	if e.cfg.BitVectorBits > 0 {
		return e.cfg.BitVectorBits
	}
	n := uint64(innerScan.Table().NumRows()) * 2
	if n < 4096 {
		n = 4096
	}
	return n
}

func (e *Execution) buildINL(node *plan.Join, need uint64) (Operator, error) {
	// The join's demand is split between its sides like a hash join's. The
	// inner fetch needs no join key of its own: the index seek matched it.
	outerOrd, err := plan.ResolveColumn(node.Outer.OutSchema(), node.OuterCol)
	if err != nil {
		return nil, err
	}
	outerNeed, innerNeed := splitJoinDemand(need, node.Outer.OutSchema(), node.InnerTab.Schema, outerOrd, -1)
	outer, err := e.build(node.Outer, outerNeed)
	if err != nil {
		return nil, err
	}
	op := NewINLJoin(e.Ctx, outer, outerOrd, node.InnerTab, node.InnerIndex, node.InnerPred, node.Schem)
	op.setDemand(innerNeed)
	e.setEst(op, node)
	op.Stats().Children = []*OpStats{outer.Stats()}
	if e.cfg != nil {
		for i, req := range e.cfg.Requests {
			if e.satisfied[i] || !req.Join || !sameTable(req.Table, node.InnerTab.Name) {
				continue
			}
			// The INL fetch stream is exactly the pages relevant to
			// DPC(inner, join-pred): probabilistic counting applies
			// directly (§IV).
			op.attach(e.newSeekMonitor(req, node.InnerTab, MechINLFetch, op.Stats()))
			e.satisfied[i] = true
		}
	}
	return op, nil
}

// findScan digs through RE-side wrappers (and panic guards) to the
// storage-engine scan — serial or parallel — if the subtree bottoms out in
// one.
func findScan(op Operator) monitoredScan {
	switch o := unwrapOp(op).(type) {
	case *SEScan:
		return o
	case *ParallelScan:
		return o
	case *SortOp:
		return findScan(o.input)
	case *ProjectOp:
		return findScan(o.input)
	case *LimitOp:
		return findScan(o.input)
	default:
		return nil
	}
}

func resolveAll(s *tuple.Schema, cols []string) ([]int, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		o, err := plan.ResolveColumn(s, c)
		if err != nil {
			return nil, err
		}
		ords[i] = o
	}
	return ords, nil
}

func sameTable(a, b string) bool { return strings.EqualFold(a, b) }

// Run opens the root, drains all rows, closes, and finalizes monitors.
// It returns the produced rows.
func (e *Execution) Run() ([]tuple.Row, error) {
	if err := e.Root.Open(); err != nil {
		return nil, err
	}
	rows, err := e.collect()
	if err != nil {
		e.Root.Close()
		return nil, err
	}
	if err := e.Root.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}

// collect is the result sink: it pulls the root's batches and copies each
// one's live rows out of operator-owned buffers, which die on the next pull,
// into query-owned memory that lives until the caller drops the result set —
// one value allocation per batch, the row headers going straight into rows.
func (e *Execution) collect() ([]tuple.Row, error) {
	var rows []tuple.Row
	var b Batch
	for {
		if err := e.Ctx.interrupted(); err != nil {
			return nil, err
		}
		n, err := e.Root.NextBatch(&b)
		if err != nil || n == 0 {
			return rows, err
		}
		if rows, err = retainRows(e.Ctx.Mem, rows, &b, nil); err != nil {
			return nil, err
		}
	}
}

// DPCResults finalizes and returns every monitor's result plus the
// unsatisfiable requests. Call after Run.
func (e *Execution) DPCResults() []DPCResult {
	var out []DPCResult
	for _, m := range e.scanMons {
		out = append(out, m.result())
	}
	for _, m := range e.seekMons {
		out = append(out, m.result())
	}
	out = append(out, e.unsat...)
	return out
}
