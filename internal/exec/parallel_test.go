package exec

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// runPlanDeg is runPlan at an explicit parallel degree, also returning the
// context for CPU-accounting comparisons.
func runPlanDeg(t *testing.T, e *env, node plan.Node, cfg *MonitorConfig, deg int) ([]tuple.Row, *Execution, *Context) {
	t.Helper()
	ctx := NewContext(e.pool)
	ctx.Parallelism = deg
	ex, err := Build(ctx, node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rows, ex, ctx
}

// sortedRowStrings canonicalizes a result set for order-insensitive
// comparison.
func sortedRowStrings(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// heapEnv adds a heap table mirroring sales' integer columns, so both
// partitioning shapes (PID ranges and leaf chains) run through the same
// assertions.
func heapEnv(t *testing.T, e *env) *catalog.Table { return heapTable(t, e, "hsales", envRows) }

// heapTable adds heap table name(id, c5, pad) with n rows.
func heapTable(t *testing.T, e *env, name string, n int) *catalog.Table {
	t.Helper()
	schema := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "c5", Kind: tuple.KindInt},
		tuple.Column{Name: "pad", Kind: tuple.KindString},
	)
	h, err := e.cat.CreateHeapTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("y", 60)
	rows := make([]tuple.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = tuple.Row{tuple.Int64(int64(i)), tuple.Int64(int64((i * 7) % n)), tuple.Str(pad)}
	}
	if _, err := h.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return h
}

// actRowsTree lists the operator tree's ActRows in pre-order. A parallel
// tree has the serial tree's shape — only labels differ (ParallelScan for
// SEScan) — so the lists compare by position.
func actRowsTree(s *OpStats) []int64 {
	out := []int64{s.ActRows}
	for _, c := range s.Children {
		out = append(out, actRowsTree(c)...)
	}
	return out
}

// assertSameExecution runs node serially and at several parallel degrees and
// requires identical result multisets, identical DPC feedback (the byte-for-
// byte acceptance criterion of the parallel mode), identical CPU accounting,
// and identical per-operator actual row counts.
func assertSameExecution(t *testing.T, mkEnv func(t *testing.T) (*env, plan.Node, *MonitorConfig)) {
	t.Helper()
	eSer, nodeSer, cfgSer := mkEnv(t)
	serRows, serEx, serCtx := runPlanDeg(t, eSer, nodeSer, cfgSer, 0)
	serDPC := serEx.DPCResults()
	serSorted := sortedRowStrings(serRows)
	serAct := actRowsTree(serEx.Root.Stats())

	for _, deg := range []int{2, 4, 7} {
		ePar, nodePar, cfgPar := mkEnv(t)
		parRows, parEx, parCtx := runPlanDeg(t, ePar, nodePar, cfgPar, deg)
		if got, want := sortedRowStrings(parRows), serSorted; !reflect.DeepEqual(got, want) {
			t.Fatalf("deg=%d: row multiset differs: %d rows vs %d", deg, len(got), len(want))
		}
		if got, want := parEx.DPCResults(), serDPC; !reflect.DeepEqual(got, want) {
			t.Errorf("deg=%d: DPC feedback differs:\n  parallel %+v\n  serial   %+v", deg, got, want)
		}
		if got, want := parCtx.RowsTouched(), serCtx.RowsTouched(); got != want {
			t.Errorf("deg=%d: rowsTouched = %d, serial %d", deg, got, want)
		}
		if got := actRowsTree(parEx.Root.Stats()); !reflect.DeepEqual(got, serAct) {
			t.Errorf("deg=%d: ActRows tree = %v, serial %v (%s)", deg, got, serAct, opTreeLabels(parEx.Root.Stats()))
		}
	}
}

func TestParallelScanMatchesSerialClustered(t *testing.T) {
	assertSameExecution(t, func(t *testing.T) (*env, plan.Node, *MonitorConfig) {
		e := newEnv(t)
		p1 := expr.NewAtom("state", expr.Eq, tuple.Str("CA"))
		p2 := expr.NewAtom("c5", expr.Lt, tuple.Int64(1500))
		node := &plan.Scan{Tab: e.sales, Pred: mustBind(t, expr.And(p1), e.sales.Schema)}
		cfg := &MonitorConfig{
			Requests: []DPCRequest{
				{Table: "sales", Pred: expr.And(p1)}, // prefix -> grouped counting
				{Table: "sales", Pred: expr.And(p2)}, // non-prefix -> DPSample
			},
			SampleFraction: 0.25,
			Seed:           7,
		}
		return e, node, cfg
	})
}

func TestParallelScanMatchesSerialHeap(t *testing.T) {
	assertSameExecution(t, func(t *testing.T) (*env, plan.Node, *MonitorConfig) {
		e := newEnv(t)
		h := heapEnv(t, e)
		p := expr.NewAtom("c5", expr.Lt, tuple.Int64(900))
		node := &plan.Scan{Tab: h, Pred: mustBind(t, expr.And(p), h.Schema)}
		cfg := &MonitorConfig{
			Requests:       []DPCRequest{{Table: "hsales", Pred: expr.And(p)}},
			SampleFraction: 0.5,
			Seed:           11,
		}
		return e, node, cfg
	})
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	assertSameExecution(t, func(t *testing.T) (*env, plan.Node, *MonitorConfig) {
		e := newEnv(t)
		outerBound := mustBind(t, expr.And(expr.NewAtom("val", expr.Lt, tuple.Int64(200))), e.dim.Schema)
		node := &plan.Join{
			Method:   plan.HashJoin,
			Outer:    &plan.Scan{Tab: e.dim, Pred: outerBound},
			Inner:    &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}},
			OuterCol: "id", InnerCol: "id", Schem: joinPlanSchema(e),
		}
		cfg := &MonitorConfig{
			Requests:       []DPCRequest{{Table: "sales", Join: true}},
			SampleFraction: 1.0,
			Seed:           3,
		}
		return e, node, cfg
	})
}

func TestParallelGroupAggMatchesSerial(t *testing.T) {
	assertSameExecution(t, func(t *testing.T) (*env, plan.Node, *MonitorConfig) {
		e := newEnv(t)
		scan := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
		node := &plan.GroupAgg{
			Input: scan, GroupCol: "state", AggCol: "c5", Func: plan.SumAgg,
			Schem: tuple.NewSchema(
				tuple.Column{Name: "state", Kind: tuple.KindString},
				tuple.Column{Name: "sum", Kind: tuple.KindInt},
			),
		}
		return e, node, nil
	})
}

// TestParallelAggregateMatchesSerial: a scalar aggregate over a parallel
// scan, bare or running a hash join's probe, folds in the workers. Every
// aggregate must read as the serial one, with the serial ActRows tree —
// the join's count included, though no joined row crosses the exchange.
// The id predicates leave some partitions without a survivor or a match,
// whose empty partials must not count as a MIN or MAX of zero.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	funcs := []plan.AggFunc{plan.CountAgg, plan.SumAgg, plan.MinAgg, plan.MaxAgg}
	idFrom := func(lo int64) expr.Conjunction { return expr.And(expr.NewAtom("id", expr.Ge, tuple.Int64(lo))) }
	idBelow := func(hi int64) expr.Conjunction { return expr.And(expr.NewAtom("id", expr.Lt, tuple.Int64(hi))) }
	c5Below := expr.And(expr.NewAtom("c5", expr.Lt, tuple.Int64(1500)))
	for _, f := range funcs {
		for _, heap := range []bool{false, true} {
			for _, pred := range []expr.Conjunction{{}, c5Below, idFrom(3700), idBelow(500)} {
				name := fmt.Sprintf("%v/heap=%v/%v", f, heap, pred)
				t.Run(name, func(t *testing.T) {
					assertSameExecution(t, func(t *testing.T) (*env, plan.Node, *MonitorConfig) {
						e := newEnv(t)
						tab := e.sales
						if heap {
							tab = heapEnv(t, e)
						}
						scan := &plan.Scan{Tab: tab, Pred: mustBind(t, pred, tab.Schema)}
						return e, plan.NewAgg(scan, f, "c5"), nil
					})
				})
			}
		}
		// dim(id, val) ⋈ sales: the aggregate reads the build side (val)
		// or the probe side (c5) of the joined row.
		for _, col := range []string{"val", "c5"} {
			for _, pred := range []expr.Conjunction{{}, idFrom(300), idBelow(600)} {
				name := fmt.Sprintf("%v/join/%s/%v", f, col, pred)
				t.Run(name, func(t *testing.T) {
					assertSameExecution(t, func(t *testing.T) (*env, plan.Node, *MonitorConfig) {
						e := newEnv(t)
						join := &plan.Join{
							Method: plan.HashJoin,
							Outer: &plan.Scan{Tab: e.dim, Pred: mustBind(t,
								expr.And(expr.NewAtom("val", expr.Lt, tuple.Int64(200))), e.dim.Schema)},
							Inner:    &plan.Scan{Tab: e.sales, Pred: mustBind(t, pred, e.sales.Schema)},
							OuterCol: "id", InnerCol: "id", Schem: joinPlanSchema(e),
						}
						cfg := &MonitorConfig{
							Requests:       []DPCRequest{{Table: "sales", Join: true}},
							SampleFraction: 1.0,
							Seed:           3,
						}
						return e, plan.NewAgg(join, f, col), cfg
					})
				})
			}
		}
	}

	// The fold is what ran: the parallel aggregate owns one partial per
	// worker.
	e := newEnv(t)
	_, ex, _ := runPlanDeg(t, e, plan.NewAgg(&plan.Scan{Tab: e.sales}, plan.CountAgg, ""), nil, 4)
	if agg, ok := unwrapOp(ex.Root).(*AggOp); !ok || agg.fold == nil || len(agg.fold.parts) != 4 {
		t.Errorf("COUNT over a degree-4 scan did not fold in the workers: %s", opTreeLabels(ex.Root.Stats()))
	}
}

// TestParallelFoldedJoinChargesOnlyTheBuild: a COUNT folded over a parallel
// hash-join probe materializes nothing in the exchange, so the query's memory
// tracker reads exactly what the serial run charges — the hash build, its
// probe's bit vector and the one-value result row. The build reads dim
// through a clustered range, which stays serial, so the probe is the only
// exchange. COUNT reads no column, so the build keeps dim.id alone: one value
// and one map entry for each of its 500 rows.
func TestParallelFoldedJoinChargesOnlyTheBuild(t *testing.T) {
	e := newEnv(t)
	dimPred := mustBind(t, expr.And(expr.NewAtom("id", expr.Lt, tuple.Int64(1500))), e.dim.Schema)
	ranges, _, ok := expr.IndexRanges(dimPred, []string{"id"})
	if !ok {
		t.Fatal("range extraction failed")
	}
	node := plan.NewAgg(&plan.Join{
		Method:   plan.HashJoin,
		Outer:    &plan.Scan{Tab: e.dim, Pred: dimPred, ClusterRange: &ranges[0]},
		Inner:    &plan.Scan{Tab: e.sales},
		OuterCol: "id", InnerCol: "id", Schem: joinPlanSchema(e),
	}, plan.CountAgg, "pad")
	used := func(deg int) int64 {
		ctx := NewContext(e.pool)
		ctx.Parallelism = deg
		ctx.Mem = NewMemTracker(0)
		ex, err := Build(ctx, node, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ex.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := rows[0][0].Int; got != 500 {
			t.Fatalf("deg=%d: COUNT = %d, want 500", deg, got)
		}
		return ctx.Mem.Used()
	}
	serial := used(0)
	const want = 500*(valueMemSize+mapEntryOverhead) + 4096/8 + valueMemSize // 40,544 B
	if serial != want {
		t.Fatalf("serial run charged %d bytes, want %d", serial, want)
	}
	for _, deg := range []int{2, 4, 7} {
		if got := used(deg); got != serial {
			t.Errorf("deg=%d: MemTracker.Used() = %d, serial %d", deg, got, serial)
		}
	}
}

// TestParallelScanUnderSortIsDeterministic: a parallel scan below a Sort is
// allowed (the sort re-establishes order), and the output must be exactly —
// not just as a multiset — the serial output.
func TestParallelScanUnderSortIsDeterministic(t *testing.T) {
	e := newEnv(t)
	mkNode := func() plan.Node {
		return &plan.Sort{
			Input: &plan.Scan{Tab: e.sales, Pred: mustBind(t,
				expr.And(expr.NewAtom("c5", expr.Lt, tuple.Int64(700))), e.sales.Schema)},
			Cols: []string{"c5"},
		}
	}
	serRows, _, _ := runPlanDeg(t, e, mkNode(), nil, 0)
	parRows, parEx, _ := runPlanDeg(t, e, mkNode(), nil, 4)
	if len(serRows) != len(parRows) {
		t.Fatalf("parallel sort returned %d rows, serial %d", len(parRows), len(serRows))
	}
	for i := range serRows {
		if fmt.Sprint(serRows[i]) != fmt.Sprint(parRows[i]) {
			t.Fatalf("row %d differs after sort: %v vs %v", i, parRows[i], serRows[i])
		}
	}
	if !strings.Contains(opTreeLabels(parEx.Root.Stats()), "ParallelScan") {
		t.Error("scan under Sort did not parallelize")
	}
}

// TestLimitSubtreeStaysSerial: which rows survive a Limit depends on input
// order, so its subtree must not partition.
func TestLimitSubtreeStaysSerial(t *testing.T) {
	e := newEnv(t)
	node := &plan.Limit{
		Input: &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}},
		N:     10,
	}
	rows, ex, _ := runPlanDeg(t, e, node, nil, 4)
	if len(rows) != 10 {
		t.Fatalf("limit returned %d rows", len(rows))
	}
	if labels := opTreeLabels(ex.Root.Stats()); strings.Contains(labels, "ParallelScan") {
		t.Errorf("scan under Limit parallelized: %s", labels)
	}
}

// TestMergeJoinUnsortedInputsStaySerial: merge-join inputs consumed in scan
// order must not partition; inputs behind an explicit Sort may.
func TestMergeJoinUnsortedInputsStaySerial(t *testing.T) {
	e := newEnv(t)
	mk := func(sortOuter, sortInner bool) *plan.Join {
		return &plan.Join{
			Method:   plan.MergeJoin,
			Outer:    &plan.Scan{Tab: e.dim, Pred: expr.Conjunction{}},
			Inner:    &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}},
			OuterCol: "id", InnerCol: "id",
			SortOuter: sortOuter, SortInner: sortInner,
			Schem: joinPlanSchema(e),
		}
	}
	_, ex, _ := runPlanDeg(t, e, mk(false, false), nil, 4)
	if labels := opTreeLabels(ex.Root.Stats()); strings.Contains(labels, "ParallelScan") {
		t.Errorf("unsorted merge-join input parallelized: %s", labels)
	}
	rows, ex2, _ := runPlanDeg(t, e, mk(true, true), nil, 4)
	if labels := opTreeLabels(ex2.Root.Stats()); !strings.Contains(labels, "ParallelScan") {
		t.Errorf("sorted merge-join inputs did not parallelize: %s", labels)
	}
	if len(rows) != 500 {
		t.Errorf("merge join returned %d rows, want 500", len(rows))
	}
}

// TestParallelQuarantineMatchesSerial: an injected monitor fault on any
// partition quarantines the merged monitor exactly as a serial fault would —
// same degraded flag, same reason, query unaffected.
func TestParallelQuarantineMatchesSerial(t *testing.T) {
	assertSameExecution(t, func(t *testing.T) (*env, plan.Node, *MonitorConfig) {
		e := newEnv(t)
		p := expr.NewAtom("c5", expr.Lt, tuple.Int64(1200))
		node := &plan.Scan{Tab: e.sales, Pred: mustBind(t, expr.And(p), e.sales.Schema)}
		cfg := &MonitorConfig{
			Requests:       []DPCRequest{{Table: "sales", Pred: expr.And(p)}},
			SampleFraction: 0.5,
			Seed:           5,
			FailMonitors:   []string{MechDPSample},
		}
		return e, node, cfg
	})
}

// TestParallelWorkerPanicSurfacesAsOperatorPanic: a panic on a worker
// goroutine crosses the channel as a *OperatorPanic, exactly like the
// single-goroutine boundary.
func TestParallelWorkerPanicSurfacesAsOperatorPanic(t *testing.T) {
	e := newEnv(t)
	ctx := NewContext(e.pool)
	ctx.Parallelism = 4
	ps := NewParallelScan(ctx, e.sales, expr.Conjunction{}, 4)
	// A probe built for a 100-column schema reads its key at byte 792, past
	// the end of every sales cell, so every worker's page visit panics on
	// its first cell, with the page pinned.
	wide := make([]tuple.Column, 100)
	for i := range wide {
		wide[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Kind: tuple.KindInt}
	}
	probe, err := newJoinProbe(nil, &valueMap[[]tuple.Row]{}, tuple.NewSchema(wide...), 99, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps.setProbe(&probe)
	if err := ps.Open(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	for {
		n, e := ps.NextBatch(&b)
		if e != nil {
			err = e
			break
		}
		if n == 0 {
			break
		}
	}
	if cerr := ps.Close(); cerr != nil {
		t.Fatalf("close: %v", cerr)
	}
	var op *OperatorPanic
	if !errors.As(err, &op) {
		t.Fatalf("worker panic surfaced as %v (%T), want *OperatorPanic", err, err)
	}
	if op.Op != ps.Stats().Label || op.Value == nil {
		t.Errorf("panic = %q in %s, want the out-of-range key read in %s", op.Value, op.Op, ps.Stats().Label)
	}
	// The pool must be fully unpinned after teardown.
	if err := e.pool.Reset(); err != nil {
		t.Errorf("pins leaked after worker panic: %v", err)
	}
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// closeWithin runs ps.Close and fails the test if it has not returned in 10 s.
func closeWithin(t *testing.T, ps *ParallelScan) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- ps.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with workers waiting for arenas")
	}
}

// TestExchangeTeardownAtQuota: every worker of a 16-flush heap scan makes its
// two arenas and then waits for the consumer to hand one back. A consumer
// that stops after its first batch must still close the scan: the workers
// stop waiting, and no goroutine and no pin outlives Close.
func TestExchangeTeardownAtQuota(t *testing.T) {
	e := newEnv(t)
	h := heapTable(t, e, "big", 16*parFlushRows)
	base := runtime.NumGoroutine()
	ps := NewParallelScan(NewContext(e.pool), h, expr.Conjunction{}, 4)
	if err := ps.Open(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	if n, err := ps.NextBatch(&b); err != nil || n == 0 {
		t.Fatalf("first batch: %d rows, %v", n, err)
	}
	// Eight arenas exist; the consumer holds one, so all are shipped and
	// every worker waits at its quota once seven fill the channel.
	waitUntil(t, "every worker waits for an arena", func() bool { return len(ps.out) == 4*parArenasPerWorker-1 })
	closeWithin(t, ps)
	waitUntil(t, "the workers exit", func() bool { return runtime.NumGoroutine() <= base })
	if n := e.pool.Pinned(); n != 0 {
		t.Errorf("%d pages pinned after Close", n)
	}
}

// TestExchangeFaultWhileWaitingForArena: one worker's first page read fails
// while the other three wait at their arena quota. The fault must surface as
// the scan's error behind the queued batches, and Close must still end every
// worker and release every pin.
func TestExchangeFaultWhileWaitingForArena(t *testing.T) {
	e := newEnv(t)
	h := heapTable(t, e, "big", 16*parFlushRows)
	parts, err := h.ScanPartitions(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		p.Iter.Close()
	}
	if err := e.pool.Reset(); err != nil { // write the table back; reads go cold
		t.Fatal(err)
	}
	if err := e.pool.Disk().CorruptPage(parts[2].File, parts[2].Pages[0]); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ps := NewParallelScan(NewContext(e.pool), h, expr.Conjunction{}, 4)
	if err := ps.Open(); err != nil {
		t.Fatal(err)
	}
	// Three healthy workers ship two arenas each and wait; the faulting one
	// ships its error and exits.
	waitUntil(t, "three workers wait and the fault is shipped", func() bool { return len(ps.out) == 3*parArenasPerWorker+1 })
	var b Batch
	for {
		n, err2 := ps.NextBatch(&b)
		if err2 != nil {
			err = err2
			break
		}
		if n == 0 {
			t.Fatal("scan ended without surfacing the read fault")
		}
	}
	if !errors.Is(err, storage.ErrChecksum) {
		t.Errorf("scan error = %v, want the torn page's checksum error", err)
	}
	closeWithin(t, ps)
	waitUntil(t, "the workers exit", func() bool { return runtime.NumGoroutine() <= base })
	if n := e.pool.Pinned(); n != 0 {
		t.Errorf("%d pages pinned after Close", n)
	}
}

// opTreeLabels flattens the operator-stats tree into one label string.
func opTreeLabels(s *OpStats) string {
	out := s.Label
	for _, c := range s.Children {
		out += " " + opTreeLabels(c)
	}
	return out
}
