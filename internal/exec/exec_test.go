package exec

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// env is a small database: sales (clustered on id) with correlated (c2) and
// uncorrelated (c5) permutation columns, plus a dim table for joins.
type env struct {
	pool  *storage.BufferPool
	cat   *catalog.Catalog
	sales *catalog.Table
	dim   *catalog.Table
}

const envRows = 4000

func newEnv(t *testing.T) *env {
	t.Helper()
	d := storage.NewDiskManager(storage.DefaultIOModel())
	pool := storage.NewBufferPool(d, 4096)
	cat := catalog.New(pool)

	salesSchema := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "c2", Kind: tuple.KindInt},
		tuple.Column{Name: "c5", Kind: tuple.KindInt},
		tuple.Column{Name: "state", Kind: tuple.KindString},
		tuple.Column{Name: "pad", Kind: tuple.KindString},
	)
	sales, err := cat.CreateClusteredTable("sales", salesSchema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(99)).Perm(envRows)
	states := []string{"CA", "WA", "OR", "NV", "AZ"}
	pad := strings.Repeat("x", 60)
	rows := make([]tuple.Row, envRows)
	for i := 0; i < envRows; i++ {
		rows[i] = tuple.Row{
			tuple.Int64(int64(i)),
			tuple.Int64(int64(i)),       // c2: fully correlated with id
			tuple.Int64(int64(perm[i])), // c5: uncorrelated
			tuple.Str(states[i%len(states)]),
			tuple.Str(pad),
		}
	}
	if _, err := sales.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		name string
		cols []string
	}{
		{"ix_c2", []string{"c2"}},
		{"ix_c5", []string{"c5"}},
		{"ix_state", []string{"state"}},
		{"ix_id", []string{"id"}},
	} {
		if _, err := cat.CreateIndex(ix.name, sales, ix.cols); err != nil {
			t.Fatal(err)
		}
	}

	dimSchema := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "val", Kind: tuple.KindInt},
	)
	dim, err := cat.CreateClusteredTable("dim", dimSchema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	dimRows := make([]tuple.Row, 500)
	for i := range dimRows {
		dimRows[i] = tuple.Row{tuple.Int64(int64(i * 3)), tuple.Int64(int64(i))}
	}
	if _, err := dim.BulkLoad(dimRows); err != nil {
		t.Fatal(err)
	}
	return &env{pool: pool, cat: cat, sales: sales, dim: dim}
}

// trueDPC computes DPC(tab, pred) by brute force.
func trueDPC(t *testing.T, tab *catalog.Table, pred expr.Conjunction) int64 {
	t.Helper()
	bound, err := pred.Bind(tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	it, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	pages := map[storage.PageID]bool{}
	for it.Next() {
		if bound.Eval(it.Row()) {
			pages[it.RID().Page] = true
		}
	}
	return int64(len(pages))
}

func mustBind(t *testing.T, c expr.Conjunction, s *tuple.Schema) expr.Conjunction {
	t.Helper()
	b, err := c.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runPlan(t *testing.T, e *env, node plan.Node, cfg *MonitorConfig) ([]tuple.Row, *Execution) {
	t.Helper()
	ctx := NewContext(e.pool)
	ex, err := Build(ctx, node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rows, ex
}

func TestSEScanFiltersAndCounts(t *testing.T) {
	e := newEnv(t)
	pred := mustBind(t, expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA"))), e.sales.Schema)
	node := &plan.Scan{Tab: e.sales, Pred: pred}
	rows, ex := runPlan(t, e, node, nil)
	if len(rows) != envRows/5 {
		t.Errorf("scan returned %d rows, want %d", len(rows), envRows/5)
	}
	if ex.Root.Stats().ActRows != int64(envRows/5) {
		t.Errorf("ActRows = %d", ex.Root.Stats().ActRows)
	}
}

func TestScanMonitorExactPrefix(t *testing.T) {
	e := newEnv(t)
	p1 := expr.NewAtom("state", expr.Eq, tuple.Str("CA"))
	p2 := expr.NewAtom("c2", expr.Lt, tuple.Int64(400))
	scanPred := mustBind(t, expr.And(p1, p2), e.sales.Schema)
	node := &plan.Scan{Tab: e.sales, Pred: scanPred}

	cfg := &MonitorConfig{Requests: []DPCRequest{
		{Table: "sales", Pred: expr.And(p1)},     // prefix of scan pred
		{Table: "sales", Pred: expr.And(p1, p2)}, // the whole pred (also a prefix)
	}}
	_, ex := runPlan(t, e, node, cfg)
	res := ex.DPCResults()
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	for i, want := range []expr.Conjunction{expr.And(p1), expr.And(p1, p2)} {
		r := res[i]
		if r.Mechanism != MechExactScan || !r.Exact {
			t.Errorf("result %d: mechanism %s exact=%v", i, r.Mechanism, r.Exact)
		}
		if got, exp := r.DPC, trueDPC(t, e.sales, want); got != exp {
			t.Errorf("result %d: DPC = %d, want %d", i, got, exp)
		}
	}
	// Cardinality feedback is exact too.
	if res[0].Cardinality != envRows/5 {
		t.Errorf("cardinality = %d, want %d", res[0].Cardinality, envRows/5)
	}
}

func TestScanMonitorNonPrefixUsesDPSample(t *testing.T) {
	e := newEnv(t)
	p1 := expr.NewAtom("state", expr.Eq, tuple.Str("CA"))
	p2 := expr.NewAtom("c5", expr.Lt, tuple.Int64(2000))
	scanPred := mustBind(t, expr.And(p1, p2), e.sales.Schema)
	node := &plan.Scan{Tab: e.sales, Pred: scanPred}

	// p2 alone is NOT a prefix (p1 comes first): needs short-circuiting off.
	cfg := &MonitorConfig{
		Requests:       []DPCRequest{{Table: "sales", Pred: expr.And(p2)}},
		SampleFraction: 1.0, // full sampling -> exact
		Seed:           42,
	}
	_, ex := runPlan(t, e, node, cfg)
	res := ex.DPCResults()
	if res[0].Mechanism != MechDPSample {
		t.Fatalf("mechanism = %s", res[0].Mechanism)
	}
	if want := trueDPC(t, e.sales, expr.And(p2)); res[0].DPC != want {
		t.Errorf("DPC = %d, want %d (f=1.0 is exact)", res[0].DPC, want)
	}
	if !res[0].Exact {
		t.Error("full-fraction DPSample should be flagged exact")
	}
}

func TestScanMonitorSampledAccuracy(t *testing.T) {
	e := newEnv(t)
	p2 := expr.NewAtom("c5", expr.Lt, tuple.Int64(2000))
	scanPred := mustBind(t, expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA")), p2), e.sales.Schema)
	node := &plan.Scan{Tab: e.sales, Pred: scanPred}
	want := float64(trueDPC(t, e.sales, expr.And(p2)))

	// The table has only ~55 pages, so one f=0.25 sample has high variance;
	// average over seeds and check the estimator is centered on the truth.
	var sum float64
	const trials = 12
	for seed := int64(0); seed < trials; seed++ {
		cfg := &MonitorConfig{
			Requests:       []DPCRequest{{Table: "sales", Pred: expr.And(p2)}},
			SampleFraction: 0.25,
			Seed:           seed,
		}
		_, ex := runPlan(t, e, node, cfg)
		sum += float64(ex.DPCResults()[0].DPC)
	}
	got := sum / trials
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("mean sampled DPC %.1f vs true %.0f: estimator biased", got, want)
	}
}

func TestIndexSeekReturnsCorrectRowsAndDPC(t *testing.T) {
	e := newEnv(t)
	pred := expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(300)))
	bound := mustBind(t, pred, e.sales.Schema)
	ix, _ := e.sales.IndexByName("ix_c2")
	ranges, _, ok := expr.IndexRanges(bound, ix.Cols)
	if !ok {
		t.Fatal("index unusable")
	}
	node := &plan.Seek{Tab: e.sales, Index: ix, Ranges: ranges, Pred: bound}
	cfg := &MonitorConfig{Requests: []DPCRequest{{Table: "sales", Pred: pred}}}
	rows, ex := runPlan(t, e, node, cfg)
	if len(rows) != 300 {
		t.Errorf("seek returned %d rows, want 300", len(rows))
	}
	res := ex.DPCResults()
	if res[0].Mechanism != MechLinearCount {
		t.Fatalf("mechanism = %s", res[0].Mechanism)
	}
	want := float64(trueDPC(t, e.sales, pred))
	got := float64(res[0].DPC)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("linear-counted DPC %.0f vs true %.0f", got, want)
	}
	if res[0].Cardinality != 300 {
		t.Errorf("cardinality = %d", res[0].Cardinality)
	}
}

func TestIndexSeekDoesNotSatisfyOtherPredicates(t *testing.T) {
	e := newEnv(t)
	seekPred := mustBind(t, expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(300))), e.sales.Schema)
	ix, _ := e.sales.IndexByName("ix_c2")
	ranges, _, _ := expr.IndexRanges(seekPred, ix.Cols)
	node := &plan.Seek{Tab: e.sales, Index: ix, Ranges: ranges, Pred: seekPred}
	// Request DPC for a different predicate: unobservable from this plan
	// (§II-B).
	cfg := &MonitorConfig{Requests: []DPCRequest{
		{Table: "sales", Pred: expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA")))},
	}}
	_, ex := runPlan(t, e, node, cfg)
	res := ex.DPCResults()
	if len(res) != 1 || res[0].Mechanism != MechUnsatisfiable {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Reason == "" {
		t.Error("unsatisfiable result lacks a reason")
	}
}

func TestIndexIntersection(t *testing.T) {
	e := newEnv(t)
	pA := expr.NewAtom("state", expr.Eq, tuple.Str("CA"))
	pB := expr.NewAtom("c2", expr.Lt, tuple.Int64(1000))
	pred := mustBind(t, expr.And(pA, pB), e.sales.Schema)
	ixA, _ := e.sales.IndexByName("ix_state")
	ixB, _ := e.sales.IndexByName("ix_c2")
	rA, _, _ := expr.IndexRanges(expr.And(pA), ixA.Cols)
	rB, _, _ := expr.IndexRanges(expr.And(pB), ixB.Cols)
	node := &plan.Intersect{Tab: e.sales, IndexA: ixA, RangesA: rA, IndexB: ixB, RangesB: rB, Pred: pred}
	cfg := &MonitorConfig{Requests: []DPCRequest{{Table: "sales", Pred: expr.And(pA, pB)}}}
	rows, ex := runPlan(t, e, node, cfg)
	want := 0
	for i := 0; i < 1000; i++ {
		if i%5 == 0 { // state CA
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("intersection returned %d rows, want %d", len(rows), want)
	}
	res := ex.DPCResults()
	trueN := float64(trueDPC(t, e.sales, expr.And(pA, pB)))
	if math.Abs(float64(res[0].DPC)-trueN)/trueN > 0.2 {
		t.Errorf("intersection DPC %d vs true %.0f", res[0].DPC, trueN)
	}
}

func TestCoveringScan(t *testing.T) {
	e := newEnv(t)
	ix, _ := e.sales.IndexByName("ix_c2")
	ixSchema := tuple.NewSchema(tuple.Column{Name: "c2", Kind: tuple.KindInt})
	pred := mustBind(t, expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(50))), ixSchema)
	node := &plan.CoveringScan{Tab: e.sales, Index: ix, Pred: pred, Schem: ixSchema}
	rows, _ := runPlan(t, e, node, nil)
	if len(rows) != 50 {
		t.Errorf("covering scan returned %d rows, want 50", len(rows))
	}
}

func joinPlanSchema(e *env) *tuple.Schema {
	return plan.JoinSchema("dim", e.dim.Schema, "sales", e.sales.Schema)
}

func trueJoinDPC(t *testing.T, e *env, outerPred expr.Conjunction) int64 {
	t.Helper()
	// Pages of sales holding a row whose id joins some dim row passing
	// outerPred (join: dim.id = sales.id).
	bound := mustBind(t, outerPred, e.dim.Schema)
	dimIDs := map[int64]bool{}
	it, _ := e.dim.ScanAll()
	for it.Next() {
		if bound.Eval(it.Row()) {
			dimIDs[it.Row()[0].Int] = true
		}
	}
	it.Close()
	pages := map[storage.PageID]bool{}
	it2, _ := e.sales.ScanAll()
	for it2.Next() {
		if dimIDs[it2.Row()[0].Int] {
			pages[it2.RID().Page] = true
		}
	}
	it2.Close()
	return int64(len(pages))
}

func TestHashJoinWithBitvectorMonitor(t *testing.T) {
	e := newEnv(t)
	outerPred := expr.And(expr.NewAtom("val", expr.Lt, tuple.Int64(200)))
	outerBound := mustBind(t, outerPred, e.dim.Schema)
	outerNode := &plan.Scan{Tab: e.dim, Pred: outerBound, Estm: plan.Estimates{Rows: 200}}
	innerNode := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	node := &plan.Join{
		Method: plan.HashJoin, Outer: outerNode, Inner: innerNode,
		OuterCol: "id", InnerCol: "id", Schem: joinPlanSchema(e),
	}
	cfg := &MonitorConfig{
		Requests:       []DPCRequest{{Table: "sales", Join: true}},
		SampleFraction: 1.0,
		Seed:           3,
	}
	rows, ex := runPlan(t, e, node, cfg)
	if len(rows) != 200 { // dim ids 0,3,..,597 all < 4000 exist in sales
		t.Errorf("join returned %d rows, want 200", len(rows))
	}
	res := ex.DPCResults()
	if len(res) != 1 || res[0].Mechanism != MechBitVector {
		t.Fatalf("results = %+v", res)
	}
	want := trueJoinDPC(t, e, outerPred)
	// Bit vector can only overestimate; with default sizing it is near exact.
	if res[0].DPC < want {
		t.Errorf("bitvector DPC %d underestimates true %d", res[0].DPC, want)
	}
	if float64(res[0].DPC) > float64(want)*1.15+2 {
		t.Errorf("bitvector DPC %d overestimates true %d badly", res[0].DPC, want)
	}
}

func TestINLJoinWithMonitor(t *testing.T) {
	e := newEnv(t)
	outerPred := mustBind(t, expr.And(expr.NewAtom("val", expr.Lt, tuple.Int64(200))), e.dim.Schema)
	outerNode := &plan.Scan{Tab: e.dim, Pred: outerPred}
	ix, _ := e.sales.IndexByName("ix_id")
	node := &plan.Join{
		Method: plan.INLJoin, Outer: outerNode,
		OuterCol: "id", InnerCol: "id",
		InnerTab: e.sales, InnerIndex: ix,
		InnerPred: expr.Conjunction{},
		Schem:     joinPlanSchema(e),
	}
	cfg := &MonitorConfig{Requests: []DPCRequest{{Table: "sales", Join: true}}}
	rows, ex := runPlan(t, e, node, cfg)
	if len(rows) != 200 {
		t.Errorf("INL join returned %d rows, want 200", len(rows))
	}
	res := ex.DPCResults()
	if res[0].Mechanism != MechINLFetch {
		t.Fatalf("mechanism = %s", res[0].Mechanism)
	}
	want := float64(trueJoinDPC(t, e, expr.And(expr.NewAtom("val", expr.Lt, tuple.Int64(200)))))
	if math.Abs(float64(res[0].DPC)-want)/want > 0.15 {
		t.Errorf("INL DPC %d vs true %.0f", res[0].DPC, want)
	}
}

func TestMergeJoinSortedOuterFullFilter(t *testing.T) {
	e := newEnv(t)
	outerPred := mustBind(t, expr.And(expr.NewAtom("val", expr.Lt, tuple.Int64(200))), e.dim.Schema)
	// Outer scanned then sorted (dim is clustered on id anyway, but the
	// explicit Sort exercises the blocking-sort filter path).
	outerNode := &plan.Scan{Tab: e.dim, Pred: outerPred, Estm: plan.Estimates{Rows: 200}}
	innerNode := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	node := &plan.Join{
		Method: plan.MergeJoin, Outer: outerNode, Inner: innerNode,
		OuterCol: "id", InnerCol: "id", SortOuter: true,
		Schem: joinPlanSchema(e),
	}
	cfg := &MonitorConfig{
		Requests:       []DPCRequest{{Table: "sales", Join: true}},
		SampleFraction: 1.0,
		Seed:           5,
	}
	rows, ex := runPlan(t, e, node, cfg)
	if len(rows) != 200 {
		t.Errorf("merge join returned %d rows, want 200", len(rows))
	}
	res := ex.DPCResults()
	want := trueJoinDPC(t, e, expr.And(expr.NewAtom("val", expr.Lt, tuple.Int64(200))))
	if res[0].DPC < want || float64(res[0].DPC) > float64(want)*1.15+2 {
		t.Errorf("merge-join DPC %d vs true %d", res[0].DPC, want)
	}
}

func TestMergeJoinPartialFilterBothClustered(t *testing.T) {
	e := newEnv(t)
	// Both inputs clustered on id: no sorts, partial bit-vector filter with
	// the late-match callback.
	outerNode := &plan.Scan{Tab: e.dim, Pred: expr.Conjunction{}, Estm: plan.Estimates{Rows: 500}}
	innerNode := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	node := &plan.Join{
		Method: plan.MergeJoin, Outer: outerNode, Inner: innerNode,
		OuterCol: "id", InnerCol: "id", Schem: joinPlanSchema(e),
	}
	cfg := &MonitorConfig{
		Requests:       []DPCRequest{{Table: "sales", Join: true}},
		SampleFraction: 1.0,
		Seed:           6,
	}
	rows, ex := runPlan(t, e, node, cfg)
	want := 0
	for i := 0; i < 500; i++ {
		if i*3 < envRows {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("merge join returned %d rows, want %d", len(rows), want)
	}
	res := ex.DPCResults()
	trueN := trueJoinDPC(t, e, expr.Conjunction{})
	if res[0].DPC < trueN {
		t.Errorf("partial-filter DPC %d underestimates true %d (late-match bug?)", res[0].DPC, trueN)
	}
	if float64(res[0].DPC) > float64(trueN)*1.15+2 {
		t.Errorf("partial-filter DPC %d overestimates true %d", res[0].DPC, trueN)
	}
}

func TestAggCount(t *testing.T) {
	e := newEnv(t)
	pred := mustBind(t, expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA"))), e.sales.Schema)
	scan := &plan.Scan{Tab: e.sales, Pred: pred}
	agg := plan.NewAgg(scan, plan.CountAgg, "pad")
	rows, _ := runPlan(t, e, agg, nil)
	if len(rows) != 1 || rows[0][0].Int != int64(envRows/5) {
		t.Errorf("count = %v", rows)
	}
}

func TestAggSumMinMax(t *testing.T) {
	e := newEnv(t)
	pred := mustBind(t, expr.And(expr.NewAtom("id", expr.Lt, tuple.Int64(4))), e.sales.Schema)
	scan := &plan.Scan{Tab: e.sales, Pred: pred}
	for _, tc := range []struct {
		f    plan.AggFunc
		want int64
	}{
		{plan.SumAgg, 0 + 1 + 2 + 3},
		{plan.MinAgg, 0},
		{plan.MaxAgg, 3},
	} {
		rows, _ := runPlan(t, e, plan.NewAgg(scan, tc.f, "id"), nil)
		if rows[0][0].Int != tc.want {
			t.Errorf("%v = %d, want %d", tc.f, rows[0][0].Int, tc.want)
		}
	}
}

func TestSortOperator(t *testing.T) {
	e := newEnv(t)
	pred := mustBind(t, expr.And(expr.NewAtom("c5", expr.Lt, tuple.Int64(20))), e.sales.Schema)
	scan := &plan.Scan{Tab: e.sales, Pred: pred}
	sortNode := &plan.Sort{Input: scan, Cols: []string{"c5"}}
	rows, _ := runPlan(t, e, sortNode, nil)
	if len(rows) != 20 {
		t.Fatalf("sort returned %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][2].Int < rows[i-1][2].Int {
			t.Fatal("output not sorted")
		}
	}
}

func TestStatsSnapshotAndXML(t *testing.T) {
	e := newEnv(t)
	pred := mustBind(t, expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA"))), e.sales.Schema)
	scan := &plan.Scan{Tab: e.sales, Pred: pred, Estm: plan.Estimates{Rows: 123}}
	agg := plan.NewAgg(scan, plan.CountAgg, "")
	_, ex := runPlan(t, e, agg, nil)
	snap := ex.StatsSnapshot()
	if snap.Label != "Aggregate(count)" || len(snap.Children) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Children[0].EstRows != 123 {
		t.Errorf("EstRows not propagated: %v", snap.Children[0].EstRows)
	}
	if snap.Children[0].ActRows != int64(envRows/5) {
		t.Errorf("ActRows = %d", snap.Children[0].ActRows)
	}
	doc := ExecutionStats{Plan: snap, Runtime: RuntimeStats{SimulatedIO: time.Second}}
	xmlStr, err := MarshalStats(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ExecutionStats", "Aggregate(count)", "actualRows"} {
		if !strings.Contains(xmlStr, want) {
			t.Errorf("XML missing %q:\n%s", want, xmlStr)
		}
	}
}

func TestContextSimCPU(t *testing.T) {
	e := newEnv(t)
	ctx := NewContext(e.pool)
	pred := mustBind(t, expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA"))), e.sales.Schema)
	ex, err := Build(ctx, &plan.Scan{Tab: e.sales, Pred: pred}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.RowsTouched() < envRows {
		t.Errorf("RowsTouched = %d, want >= %d", ctx.RowsTouched(), envRows)
	}
	if ctx.SimCPU() != time.Duration(ctx.RowsTouched())*ctx.CPUPerRow {
		t.Error("SimCPU inconsistent")
	}
}

func TestSeekMonitorWithSamplingComparison(t *testing.T) {
	e := newEnv(t)
	pred := expr.And(expr.NewAtom("c5", expr.Lt, tuple.Int64(500)))
	bound := mustBind(t, pred, e.sales.Schema)
	ix, _ := e.sales.IndexByName("ix_c5")
	ranges, _, _ := expr.IndexRanges(bound, ix.Cols)
	node := &plan.Seek{Tab: e.sales, Index: ix, Ranges: ranges, Pred: bound}
	cfg := &MonitorConfig{
		Requests:                 []DPCRequest{{Table: "sales", Pred: pred}},
		CompareSamplingEstimator: true,
		ReservoirSize:            64,
	}
	_, ex := runPlan(t, e, node, cfg)
	res := ex.DPCResults()
	if res[0].SamplingEstimate == 0 {
		t.Error("comparison estimator did not run")
	}
}
