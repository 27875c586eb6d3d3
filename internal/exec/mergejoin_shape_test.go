package exec

import (
	"strings"
	"testing"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// TestMergeJoinSortInnerOnlyUnmonitorable covers the one merge-join shape
// §IV cannot monitor: a blocking Sort on the inner only. The inner scan
// drains before the (lazily consumed) outer fills the partial filter, so
// attaching the monitor would silently undercount; the builder must report
// the request unsatisfiable instead.
func TestMergeJoinSortInnerOnlyUnmonitorable(t *testing.T) {
	e := newEnv(t)
	// Outer: dim, clustered on id (no sort needed). Inner: sales sorted on
	// c5 (not its clustering order) -> SortInner only.
	outerNode := &plan.Scan{Tab: e.dim, Pred: expr.Conjunction{}}
	innerNode := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	node := &plan.Join{
		Method: plan.MergeJoin, Outer: outerNode, Inner: innerNode,
		OuterCol: "id", InnerCol: "c5", SortInner: true,
		Schem: plan.JoinSchema("dim", e.dim.Schema, "sales", e.sales.Schema),
	}
	cfg := &MonitorConfig{
		Requests:       []DPCRequest{{Table: "sales", Join: true}},
		SampleFraction: 1.0,
	}
	rows, ex := runPlan(t, e, node, cfg)
	// Join correctness: dim ids 0,3,...,1497 each match the sales row
	// whose c5 equals them (c5 is a permutation of 0..envRows-1).
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
	if len(res) != 1 || res[0].Mechanism != MechUnsatisfiable {
		t.Fatalf("results = %+v, want unsatisfiable", res)
	}
}

// TestMergeJoinLateMatch covers the partial bit-vector filter's RE→SE
// callback. The outer holds the even ids and the inner (clustered, padded to
// span many pages) the multiples of 3, so they match on multiples of 6. The
// merge moves the inner onto a new page when its last row falls below the
// current outer id — an even id the inner usually lacks — so the page's
// first match is not yet in the filter when the scan observes the page. Only
// the late match, made while that page is still the scan's current one,
// counts it; without it the page count falls short.
func TestMergeJoinLateMatch(t *testing.T) {
	e := newEnv(t)
	mk := func(name string, step, n int) *catalog.Table {
		tab, err := e.cat.CreateClusteredTable(name, tuple.NewSchema(
			tuple.Column{Name: "id", Kind: tuple.KindInt},
			tuple.Column{Name: "pad", Kind: tuple.KindString},
		), []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]tuple.Row, n)
		for i := range rows {
			rows[i] = tuple.Row{tuple.Int64(int64(i * step)), tuple.Str(strings.Repeat("p", 100))}
		}
		if _, err := tab.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	outer, inner := mk("evens", 2, 3000), mk("threes", 3, 2000)
	node := &plan.Join{
		Method:   plan.MergeJoin,
		Outer:    &plan.Scan{Tab: outer, Pred: expr.Conjunction{}},
		Inner:    &plan.Scan{Tab: inner, Pred: expr.Conjunction{}},
		OuterCol: "id", InnerCol: "id",
		Schem: plan.JoinSchema("evens", outer.Schema, "threes", inner.Schema),
	}
	cfg := &MonitorConfig{
		Requests:       []DPCRequest{{Table: "threes", Join: true}},
		SampleFraction: 1.0,
		BitVectorBits:  1 << 14, // wider than the id domain: no false positives
	}
	rows, ex := runPlan(t, e, node, cfg)
	if len(rows) != 1000 {
		t.Fatalf("merge join returned %d rows, want 1000", len(rows))
	}
	it, err := inner.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	pages := map[storage.PageID]bool{}
	for it.Next() {
		if it.Row()[0].Int%6 == 0 {
			pages[it.RID().Page] = true
		}
	}
	it.Close()
	if res := ex.DPCResults(); len(res) != 1 || res[0].Mechanism != MechBitVector || res[0].DPC != int64(len(pages)) {
		t.Fatalf("join DPC = %+v, want exactly the %d pages holding a match", res, len(pages))
	}
}

// TestMergeJoinBothSortedMonitorable: with sorts on both inputs, the outer
// sort is blocking, so the filter is complete before the inner sort drains
// its scan — monitoring is sound.
func TestMergeJoinBothSortedMonitorable(t *testing.T) {
	e := newEnv(t)
	outerPred := mustBind(t, expr.And(expr.NewAtom("val", expr.Lt, tuple.Int64(100))), e.dim.Schema)
	outerNode := &plan.Scan{Tab: e.dim, Pred: outerPred, Estm: plan.Estimates{Rows: 100}}
	innerNode := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	node := &plan.Join{
		Method: plan.MergeJoin, Outer: outerNode, Inner: innerNode,
		OuterCol: "id", InnerCol: "c5", SortOuter: true, SortInner: true,
		Schem: plan.JoinSchema("dim", e.dim.Schema, "sales", e.sales.Schema),
	}
	cfg := &MonitorConfig{
		Requests:       []DPCRequest{{Table: "sales", Join: true}},
		SampleFraction: 1.0,
		Seed:           11,
	}
	rows, ex := runPlan(t, e, node, cfg)
	if len(rows) != 100 {
		t.Errorf("join returned %d rows, want 100", len(rows))
	}
	res := ex.DPCResults()
	if res[0].Mechanism != MechBitVector {
		t.Fatalf("mechanism = %s", res[0].Mechanism)
	}
	// Ground truth: pages of sales holding rows whose c5 is a dim id < 300
	// (ids 0,3,...,297).
	dimIDs := map[int64]bool{}
	for i := 0; i < 100; i++ {
		dimIDs[int64(i*3)] = true
	}
	it, _ := e.sales.ScanAll()
	pages := map[interface{}]bool{}
	for it.Next() {
		if dimIDs[it.Row()[2].Int] { // c5 ordinal 2
			pages[it.RID().Page] = true
		}
	}
	it.Close()
	want := int64(len(pages))
	if res[0].DPC < want || res[0].DPC > want+int64(float64(want)/5)+2 {
		t.Errorf("DPC = %d, true %d", res[0].DPC, want)
	}
}
