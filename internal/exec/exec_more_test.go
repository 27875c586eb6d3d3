package exec

import (
	"testing"

	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/tuple"
)

func TestIndexSeekMultipleRangesIN(t *testing.T) {
	e := newEnv(t)
	pred := expr.And(expr.NewIn("state", tuple.Str("CA"), tuple.Str("NV")))
	bound := mustBind(t, pred, e.sales.Schema)
	ix, _ := e.sales.IndexByName("ix_state")
	ranges, _, ok := expr.IndexRanges(bound, ix.Cols)
	if !ok || len(ranges) != 2 {
		t.Fatalf("IN produced %d ranges", len(ranges))
	}
	node := &plan.Seek{Tab: e.sales, Index: ix, Ranges: ranges, Pred: bound}
	rows, _ := runPlan(t, e, node, nil)
	if len(rows) != 2*envRows/5 {
		t.Errorf("IN seek returned %d rows, want %d", len(rows), 2*envRows/5)
	}
	for _, r := range rows {
		if s := r[3].Str; s != "CA" && s != "NV" {
			t.Fatalf("row with state %q", s)
		}
	}
}

func TestINLJoinResidualPredicate(t *testing.T) {
	e := newEnv(t)
	// Join dim to sales, keeping only sales rows in state CA. Per §IV the
	// selection on the INL inner is applied after the join.
	outerNode := &plan.Scan{Tab: e.dim, Pred: expr.Conjunction{}}
	ix, _ := e.sales.IndexByName("ix_id")
	innerPred := mustBind(t, expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA"))), e.sales.Schema)
	node := &plan.Join{
		Method: plan.INLJoin, Outer: outerNode,
		OuterCol: "id", InnerCol: "id",
		InnerTab: e.sales, InnerIndex: ix, InnerPred: innerPred,
		Schem: joinPlanSchema(e),
	}
	cfg := &MonitorConfig{Requests: []DPCRequest{{Table: "sales", Join: true}}}
	rows, ex := runPlan(t, e, node, cfg)
	// dim ids 0,3,...,1497: those that are CA rows (id%5==0) survive.
	want := 0
	for i := 0; i < 500; i++ {
		id := i * 3
		if id < envRows && id%5 == 0 {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("INL with residual returned %d rows, want %d", len(rows), want)
	}
	// The join DPC must reflect the JOIN predicate only (pre-residual):
	// all 500 matched rows' pages, not just CA ones.
	res := ex.DPCResults()
	trueJoin := trueJoinDPC(t, e, expr.Conjunction{})
	got := float64(res[0].DPC)
	if got < float64(trueJoin)*0.85 || got > float64(trueJoin)*1.15 {
		t.Errorf("join DPC %v should track the pre-residual join predicate (%d)", got, trueJoin)
	}
}

func TestHashJoinNoMatches(t *testing.T) {
	e := newEnv(t)
	// Outer selects dim rows with val >= 10000: none exist.
	outerPred := mustBind(t, expr.And(expr.NewAtom("val", expr.Ge, tuple.Int64(10000))), e.dim.Schema)
	outerNode := &plan.Scan{Tab: e.dim, Pred: outerPred}
	innerNode := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	node := &plan.Join{
		Method: plan.HashJoin, Outer: outerNode, Inner: innerNode,
		OuterCol: "id", InnerCol: "id", Schem: joinPlanSchema(e),
	}
	cfg := &MonitorConfig{
		Requests:       []DPCRequest{{Table: "sales", Join: true}},
		SampleFraction: 1.0,
	}
	rows, ex := runPlan(t, e, node, cfg)
	if len(rows) != 0 {
		t.Errorf("empty join returned %d rows", len(rows))
	}
	res := ex.DPCResults()
	if res[0].DPC != 0 {
		t.Errorf("join DPC = %d for empty outer, want 0", res[0].DPC)
	}
}

func TestMergeJoinEmptyInputs(t *testing.T) {
	e := newEnv(t)
	empty := mustBind(t, expr.And(expr.NewAtom("val", expr.Ge, tuple.Int64(1<<40))), e.dim.Schema)
	outerNode := &plan.Scan{Tab: e.dim, Pred: empty}
	innerNode := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	node := &plan.Join{
		Method: plan.MergeJoin, Outer: outerNode, Inner: innerNode,
		OuterCol: "id", InnerCol: "id", Schem: joinPlanSchema(e),
	}
	rows, _ := runPlan(t, e, node, nil)
	if len(rows) != 0 {
		t.Errorf("merge join of empty outer returned %d rows", len(rows))
	}
}

func TestFindSEScanThroughFilter(t *testing.T) {
	e := newEnv(t)
	ctx := NewContext(e.pool)
	scan := NewSEScan(ctx, e.sales, expr.Conjunction{})
	srt := NewSort(ctx, scan, []int{0})
	if got := findScan(srt); got != monitoredScan(scan) {
		t.Error("findScan failed to dig through Sort(Scan)")
	}
	ix, _ := e.sales.IndexByName("ix_c2")
	cov := NewCoveringScan(ctx, ix, expr.Conjunction{},
		tuple.NewSchema(tuple.Column{Name: "c2", Kind: tuple.KindInt}))
	if findScan(cov) != nil {
		t.Error("findScan found a table scan in a covering scan")
	}
}

func TestScanMonitorCardinalityScaling(t *testing.T) {
	e := newEnv(t)
	// With f=0.5, the reported cardinality should be scaled back to the
	// full population, approximately.
	p2 := expr.NewAtom("c5", expr.Lt, tuple.Int64(1000))
	scanPred := mustBind(t, expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA")), p2), e.sales.Schema)
	node := &plan.Scan{Tab: e.sales, Pred: scanPred}
	cfg := &MonitorConfig{
		Requests:       []DPCRequest{{Table: "sales", Pred: expr.And(p2)}},
		SampleFraction: 0.5,
		Seed:           13,
	}
	_, ex := runPlan(t, e, node, cfg)
	card := float64(ex.DPCResults()[0].Cardinality)
	if card < 700 || card > 1300 {
		t.Errorf("scaled cardinality = %.0f, want ~1000", card)
	}
}

func TestMonitorRequestOnUnknownColumn(t *testing.T) {
	e := newEnv(t)
	node := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	cfg := &MonitorConfig{Requests: []DPCRequest{
		{Table: "sales", Pred: expr.And(expr.NewAtom("nonexistent", expr.Eq, tuple.Int64(1)))},
	}}
	_, ex := runPlan(t, e, node, cfg)
	res := ex.DPCResults()
	if len(res) != 1 || res[0].Mechanism != MechUnsatisfiable {
		t.Fatalf("results = %+v", res)
	}
}

func TestEmptyPredicateScanMonitor(t *testing.T) {
	e := newEnv(t)
	// DPC(T, TRUE) = all pages; the empty predicate is trivially a prefix.
	node := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	cfg := &MonitorConfig{Requests: []DPCRequest{{Table: "sales", Pred: expr.Conjunction{}}}}
	_, ex := runPlan(t, e, node, cfg)
	res := ex.DPCResults()
	if res[0].Mechanism != MechExactScan {
		t.Fatalf("mechanism = %s", res[0].Mechanism)
	}
	if res[0].DPC != e.sales.NumPages() {
		t.Errorf("DPC(TRUE) = %d, want all %d pages", res[0].DPC, e.sales.NumPages())
	}
}

func TestClusterRangeScanOperator(t *testing.T) {
	e := newEnv(t)
	pred := mustBind(t, expr.And(expr.NewAtom("id", expr.Lt, tuple.Int64(500))), e.sales.Schema)
	ranges, _, ok := expr.IndexRanges(pred, []string{"id"})
	if !ok {
		t.Fatal("range extraction failed")
	}
	node := &plan.Scan{Tab: e.sales, Pred: pred, ClusterRange: &ranges[0]}
	cfg := &MonitorConfig{Requests: []DPCRequest{{Table: "sales", Pred: pred}}}
	rows, ex := runPlan(t, e, node, cfg)
	if len(rows) != 500 {
		t.Errorf("range scan returned %d rows, want 500", len(rows))
	}
	res := ex.DPCResults()
	if res[0].Mechanism != MechExactScan || !res[0].Exact {
		t.Fatalf("range-scan monitor = %+v", res[0])
	}
	if want := trueDPC(t, e.sales, pred); res[0].DPC != want {
		t.Errorf("DPC = %d, want %d", res[0].DPC, want)
	}
	// Only a handful of physical pages should have been read.
	ioReads := e.pool.Disk().Stats()
	_ = ioReads // informational; correctness asserted above
}

func TestClusterRangeScanForeignPredicateUnsatisfiable(t *testing.T) {
	e := newEnv(t)
	pred := mustBind(t, expr.And(expr.NewAtom("id", expr.Lt, tuple.Int64(500))), e.sales.Schema)
	ranges, _, _ := expr.IndexRanges(pred, []string{"id"})
	node := &plan.Scan{Tab: e.sales, Pred: pred, ClusterRange: &ranges[0]}
	// A predicate on another column: pages outside the range are unseen,
	// so this DPC cannot be observed from a range scan.
	cfg := &MonitorConfig{Requests: []DPCRequest{
		{Table: "sales", Pred: expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA")))},
	}}
	_, ex := runPlan(t, e, node, cfg)
	res := ex.DPCResults()
	if res[0].Mechanism != MechUnsatisfiable {
		t.Fatalf("foreign predicate on range scan: %+v", res[0])
	}
}
