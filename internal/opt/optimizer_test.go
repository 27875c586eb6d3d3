package opt

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

// optEnv: a 50k-row clustered table where c2 correlates with the clustering
// key and c5 does not — the synthetic shape of §V-B.1, scaled down.
type optEnv struct {
	pool *storage.BufferPool
	cat  *catalog.Catalog
	tab  *catalog.Table
	opt  *Optimizer
}

const optRows = 50000

func newOptEnv(t *testing.T) *optEnv {
	t.Helper()
	d := storage.NewDiskManager(storage.DefaultIOModel())
	pool := storage.NewBufferPool(d, 8192)
	cat := catalog.New(pool)
	schema := tuple.NewSchema(
		tuple.Column{Name: "c1", Kind: tuple.KindInt},
		tuple.Column{Name: "c2", Kind: tuple.KindInt},
		tuple.Column{Name: "c5", Kind: tuple.KindInt},
		tuple.Column{Name: "pad", Kind: tuple.KindString},
	)
	tab, err := cat.CreateClusteredTable("t", schema, []string{"c1"})
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(5)).Perm(optRows)
	pad := strings.Repeat("p", 60)
	rows := make([]tuple.Row, optRows)
	for i := range rows {
		rows[i] = tuple.Row{
			tuple.Int64(int64(i)),
			tuple.Int64(int64(i)),
			tuple.Int64(int64(perm[i])),
			tuple.Str(pad),
		}
	}
	if _, err := tab.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	for _, ix := range []string{"c2", "c5"} {
		if _, err := cat.CreateIndex("ix_"+ix, tab, []string{ix}); err != nil {
			t.Fatal(err)
		}
	}
	o := New(cat, storage.DefaultIOModel(), time.Microsecond)
	if err := o.AnalyzeTable("t"); err != nil {
		t.Fatal(err)
	}
	return &optEnv{pool: pool, cat: cat, tab: tab, opt: o}
}

func accessOf(t *testing.T, n plan.Node) plan.Node {
	t.Helper()
	agg, ok := n.(*plan.Agg)
	if !ok {
		t.Fatalf("root is %T, want Agg", n)
	}
	return agg.Input
}

func TestAnalyzeStats(t *testing.T) {
	e := newOptEnv(t)
	ts, ok := e.opt.TableStats("T")
	if !ok {
		t.Fatal("stats missing")
	}
	if ts.Rows != optRows {
		t.Errorf("Rows = %d", ts.Rows)
	}
	if ts.Pages <= 0 || ts.RowsPerPage < 40 || ts.RowsPerPage > 100 {
		t.Errorf("Pages = %d, RowsPerPage = %.1f", ts.Pages, ts.RowsPerPage)
	}
	if ndv := ts.DistinctValues("c5"); ndv != optRows {
		t.Errorf("NDV(c5) = %d", ndv)
	}
	sel := ts.Selectivity(expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(optRows/10))))
	if math.Abs(sel-0.1) > 0.02 {
		t.Errorf("selectivity = %.3f, want ~0.1", sel)
	}
}

func TestAnalyzeUnknownTable(t *testing.T) {
	e := newOptEnv(t)
	if err := e.opt.AnalyzeTable("nope"); err == nil {
		t.Error("analyze of missing table succeeded")
	}
	if _, err := e.opt.Optimize(&Query{Table: "nope"}); err == nil {
		t.Error("optimize of missing table succeeded")
	}
}

// TestOptimizerBelievesIndependence is the paper's core setup: for a 1%
// predicate on the CORRELATED column c2, the analytical Yao estimate says
// ~40% of pages would be fetched, so the optimizer picks a Table Scan even
// though the true DPC is ~1% of pages and an Index Seek would win.
func TestOptimizerBelievesIndependence(t *testing.T) {
	e := newOptEnv(t)
	pred := expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(optRows/100)))
	q := &Query{Table: "t", Pred: pred, Agg: plan.CountAgg, AggCol: "pad"}
	node, err := e.opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, isScan := accessOf(t, node).(*plan.Scan); !isScan {
		t.Errorf("without feedback optimizer chose %s, want Scan", accessOf(t, node).Label())
	}
}

// TestInjectedDPCFlipsToSeek: injecting the true (small) page count flips
// the choice to Index Seek — the Fig 6 mechanism.
func TestInjectedDPCFlipsToSeek(t *testing.T) {
	e := newOptEnv(t)
	pred := expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(optRows/100)))
	ts, _ := e.opt.TableStats("t")
	trueDPC := float64(optRows/100) / ts.RowsPerPage // contiguous rows
	e.opt.InjectDPC("t", pred, trueDPC)
	q := &Query{Table: "t", Pred: pred, Agg: plan.CountAgg, AggCol: "pad"}
	node, err := e.opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	seek, isSeek := accessOf(t, node).(*plan.Seek)
	if !isSeek {
		t.Fatalf("with injected DPC optimizer chose %s, want Seek", accessOf(t, node).Label())
	}
	if seek.Index.Name != "ix_c2" {
		t.Errorf("chose index %s", seek.Index.Name)
	}
	if math.Abs(seek.Estm.DPC-trueDPC) > 1 {
		t.Errorf("plan DPC estimate %.0f, injected %.0f", seek.Estm.DPC, trueDPC)
	}
}

// TestUncorrelatedStaysScan: for the uncorrelated column c5 the analytical
// estimate is roughly right, so feedback does not change the plan (the flat
// region of Fig 6, queries 75-100).
func TestUncorrelatedStaysScan(t *testing.T) {
	e := newOptEnv(t)
	pred := expr.And(expr.NewAtom("c5", expr.Lt, tuple.Int64(optRows/20))) // 5%
	q := &Query{Table: "t", Pred: pred, Agg: plan.CountAgg, AggCol: "pad"}
	node, _ := e.opt.Optimize(q)
	if _, isScan := accessOf(t, node).(*plan.Scan); !isScan {
		t.Fatalf("analytical choice = %s, want Scan", accessOf(t, node).Label())
	}
	// Even the true DPC (~ all qualifying rows on distinct pages) keeps it
	// a scan.
	e.opt.InjectDPC("t", pred, float64(optRows/20))
	node, _ = e.opt.Optimize(q)
	if _, isScan := accessOf(t, node).(*plan.Scan); !isScan {
		t.Errorf("true-DPC choice = %s, want Scan still", accessOf(t, node).Label())
	}
}

func TestVerySelectivePredicatePicksSeekAnyway(t *testing.T) {
	e := newOptEnv(t)
	// A handful of rows: even Yao's estimate is small enough for a seek.
	pred := expr.And(expr.NewAtom("c5", expr.Lt, tuple.Int64(5)))
	q := &Query{Table: "t", Pred: pred, Agg: plan.CountAgg, AggCol: "pad"}
	node, _ := e.opt.Optimize(q)
	if _, isSeek := accessOf(t, node).(*plan.Seek); !isSeek {
		t.Errorf("choice = %s, want Seek", accessOf(t, node).Label())
	}
}

func TestInjectCardinalityOverridesHistogram(t *testing.T) {
	e := newOptEnv(t)
	pred := expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(optRows/2)))
	e.opt.InjectCardinality("t", pred, 3) // pretend: 3 rows
	e.opt.InjectDPC("t", pred, 1)
	q := &Query{Table: "t", Pred: pred, Agg: plan.CountAgg, AggCol: "pad"}
	node, _ := e.opt.Optimize(q)
	access := accessOf(t, node)
	if _, isSeek := access.(*plan.Seek); !isSeek {
		t.Fatalf("choice = %s, want Seek with tiny injected cardinality", access.Label())
	}
	if access.Est().Rows != 3 {
		t.Errorf("Est.Rows = %v, want 3 (injected)", access.Est().Rows)
	}
	e.opt.ClearInjections()
	node, _ = e.opt.Optimize(q)
	if _, isScan := accessOf(t, node).(*plan.Scan); !isScan {
		t.Error("ClearInjections did not restore analytical choice")
	}
}

func TestIndexIntersectionConsidered(t *testing.T) {
	e := newOptEnv(t)
	// Two moderately selective predicates on separately indexed columns,
	// with injected stats that make intersection the winner.
	pred := expr.And(
		expr.NewAtom("c2", expr.Lt, tuple.Int64(optRows/5)),
		expr.NewAtom("c5", expr.Lt, tuple.Int64(optRows/5)),
	)
	e.opt.InjectDPC("t", pred, 2) // intersected set: 2 pages
	q := &Query{Table: "t", Pred: pred, Agg: plan.CountAgg, AggCol: "pad"}
	node, err := e.opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := accessOf(t, node).(*plan.Intersect); !ok {
		t.Logf("choice = %s (intersection not the winner here; acceptable)", accessOf(t, node).Label())
	}
}

// --- join planning ---

type joinEnv struct {
	*optEnv
	dim *catalog.Table
}

func newJoinEnv(t *testing.T) *joinEnv {
	e := newOptEnv(t)
	schema := tuple.NewSchema(
		tuple.Column{Name: "c1", Kind: tuple.KindInt},
		tuple.Column{Name: "c2", Kind: tuple.KindInt},
		tuple.Column{Name: "pad", Kind: tuple.KindString},
	)
	dim, err := e.cat.CreateClusteredTable("t1", schema, []string{"c1"})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("q", 60)
	rows := make([]tuple.Row, optRows)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int64(int64(i)), tuple.Int64(int64(i)), tuple.Str(pad)}
	}
	if _, err := dim.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if err := e.opt.AnalyzeTable("t1"); err != nil {
		t.Fatal(err)
	}
	return &joinEnv{optEnv: e, dim: dim}
}

func joinQuery(sel int64, col string) *Query {
	return &Query{
		Table: "t1", Pred: expr.And(expr.NewAtom("c1", expr.Lt, tuple.Int64(sel))),
		Table2: "t", JoinCol: col, JoinCol2: col,
		Agg: plan.CountAgg, AggCol: "pad",
	}
}

func findJoin(t *testing.T, n plan.Node) *plan.Join {
	t.Helper()
	agg, ok := n.(*plan.Agg)
	if !ok {
		t.Fatalf("root %T", n)
	}
	j, ok := agg.Input.(*plan.Join)
	if !ok {
		t.Fatalf("agg input %T, want Join", agg.Input)
	}
	return j
}

// recordJoinDPCAt feeds the join curve of (inner, innerCol) one observation,
// dpc pages, at the operating point of an INL join probing with outerRows
// rows: the inner rows the optimizer expects them to match. A one-point
// curve returns dpc exactly there.
func recordJoinDPCAt(t *testing.T, o *Optimizer, inner, innerCol string, outerRows float64, dpc int64) {
	t.Helper()
	ts, ok := o.TableStats(inner)
	if !ok {
		t.Fatalf("%s not analyzed", inner)
	}
	match := outerRows * float64(ts.Rows) / math.Max(float64(ts.DistinctValues(innerCol)), 1)
	o.RecordJoinDPCObservation(inner, innerCol, int64(math.Round(match)), dpc)
}

// Without feedback, a selective join on the correlated column is costed
// with the Mackert-Lohman estimate (thousands of scattered pages), so Hash
// Join wins; feeding back the true join DPC flips it to INL — the Fig 8
// story.
func TestJoinDPCInjectionFlipsHashToINL(t *testing.T) {
	e := newJoinEnv(t)
	q := joinQuery(optRows/100, "c2") // 1% of outer
	node, err := e.opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(t, node)
	if j.Method != plan.HashJoin && j.Method != plan.MergeJoin {
		t.Errorf("analytical join method = %v, want Hash or Merge", j.Method)
	}
	ts, _ := e.opt.TableStats("t")
	trueDPC := math.Ceil(float64(optRows/100) / ts.RowsPerPage)
	outerRows, err := e.opt.EstimateCardinality(q.Table, q.Pred)
	if err != nil {
		t.Fatal(err)
	}
	recordJoinDPCAt(t, e.opt, "t", "c2", outerRows, int64(trueDPC))
	if got, _ := e.opt.EstimateINLDPC("t", "c2", outerRows); got != trueDPC {
		t.Fatalf("join DPC at the operating point = %v, want the observed %v", got, trueDPC)
	}
	node, err = e.opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	j = findJoin(t, node)
	if j.Method != plan.INLJoin {
		t.Errorf("with the true join DPC fed back, method = %v, want INL", j.Method)
	}
	if j.InnerTab.Name != "t" {
		t.Errorf("INL inner = %s", j.InnerTab.Name)
	}
}

// Beyond the crossover selectivity, Hash stays optimal even with the true
// DPC (the ~7% threshold in §V-B.1).
func TestJoinHighSelectivityStaysHash(t *testing.T) {
	e := newJoinEnv(t)
	q := joinQuery(optRows/4, "c5") // 25% of outer, uncorrelated inner col
	ts, _ := e.opt.TableStats("t")
	outerRows, err := e.opt.EstimateCardinality(q.Table, q.Pred)
	if err != nil {
		t.Fatal(err)
	}
	recordJoinDPCAt(t, e.opt, "t", "c5", outerRows, ts.Pages) // true: all pages
	if got, _ := e.opt.EstimateINLDPC("t", "c5", outerRows); got != float64(ts.Pages) {
		t.Fatalf("join DPC at the operating point = %v, want every page (%d)", got, ts.Pages)
	}
	node, err := e.opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	j := findJoin(t, node)
	if j.Method == plan.INLJoin {
		t.Errorf("method = %v, want not-INL at 25%% selectivity", j.Method)
	}
}

func TestOptimizeDispatch(t *testing.T) {
	e := newJoinEnv(t)
	single := &Query{Table: "t", Pred: expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(10))),
		Agg: plan.CountAgg, AggCol: "pad"}
	n, err := e.opt.Optimize(single)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.(*plan.Agg); !ok {
		t.Errorf("single root %T", n)
	}
	jq := joinQuery(100, "c2")
	n, err = e.opt.Optimize(jq)
	if err != nil {
		t.Fatal(err)
	}
	findJoin(t, n)
	if _, err := e.opt.optimizeJoin(single); err == nil {
		t.Error("optimizeJoin accepted single-table query")
	}
}

func TestCoveringIndexScanChosen(t *testing.T) {
	e := newOptEnv(t)
	// COUNT(c5) with a predicate on c5: ix_c5 covers everything the query
	// needs, and its leaves are ~20x narrower than the table.
	pred := expr.And(expr.NewAtom("c5", expr.Lt, tuple.Int64(optRows/2)))
	q := &Query{Table: "t", Pred: pred, Agg: plan.CountAgg, AggCol: "c5"}
	node, err := e.opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	cov, ok := accessOf(t, node).(*plan.CoveringScan)
	if !ok {
		t.Fatalf("choice = %s, want CoveringIndexScan", accessOf(t, node).Label())
	}
	if cov.Index.Name != "ix_c5" {
		t.Errorf("covering index = %s", cov.Index.Name)
	}
	// With a non-covered output column the table must be visited.
	q2 := &Query{Table: "t", Pred: pred, Agg: plan.CountAgg, AggCol: "pad"}
	node2, _ := e.opt.Optimize(q2)
	if _, isCov := accessOf(t, node2).(*plan.CoveringScan); isCov {
		t.Error("covering scan chosen despite uncovered output column")
	}
}

func TestPlanFormat(t *testing.T) {
	e := newJoinEnv(t)
	node, err := e.opt.Optimize(joinQuery(100, "c2"))
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Format(node)
	if !strings.Contains(s, "COUNT(") || !strings.Contains(s, "cost=") {
		t.Errorf("Format output:\n%s", s)
	}
}
