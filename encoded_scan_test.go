package pagefeedback_test

import (
	"fmt"
	"strings"
	"testing"

	"pagefeedback"
	"pagefeedback/internal/catalog"
	"pagefeedback/internal/datagen"
	"pagefeedback/internal/exec"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
)

// rangeScanAllocBudget is what exec.Build plus Run of the oltp_point range
// shape allocates since pinning a page stopped allocating (it was 44 before).
// The repo benchmark bounds oltp_point's allocs_per_query at 1 %, and one
// extra allocation per scan build is enough to break it.
const rangeScanAllocBudget = 36

// TestRangeScanBuildRunAllocs guards the per-query cost of compiling a scan
// predicate: a scan builds one evaluator, and everything derivable from the
// schema alone is computed once in tuple.NewSchema, so the encoded-first
// scan may not allocate more per build+run than the decoded one did.
func TestRangeScanBuildRunAllocs(t *testing.T) {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())
	if _, err := datagen.BuildSynthetic(eng, 20000, 1); err != nil {
		t.Fatal(err)
	}
	q, err := eng.ParseQuery("SELECT COUNT(padding) FROM t WHERE c1 BETWEEN 5000 AND 5002 AND c3 >= 0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := eng.Optimizer().Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	var compiled int64
	run := func() {
		ctx := exec.NewContext(eng.Pool())
		ex, err := exec.Build(ctx, node, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ex.Run()
		if err != nil || len(rows) != 1 || rows[0][0].Int != 3 {
			t.Fatalf("rows %v, err %v", rows, err)
		}
		if label := ex.StatsSnapshot().Children[0].Label; !strings.HasPrefix(label, "RangeScan(") {
			t.Fatalf("plan reads through %s, want the clustered range scan", label)
		}
		compiled = ctx.CompiledPredicates()
	}
	run() // warm the pool
	if compiled != 1 {
		t.Errorf("CompiledPredicates = %d, want 1: one per compiled scan predicate", compiled)
	}
	got := testing.AllocsPerRun(200, run)
	t.Logf("build+run allocations: %.0f (budget %d)", got, rangeScanAllocBudget)
	if got > rangeScanAllocBudget {
		t.Errorf("range-scan build+run allocates %.0f times, budget is %d", got, rangeScanAllocBudget)
	}
}

// TestMonitoredScanDecodesOnlyWhatSurvives checks that the encoded-first
// page visit is engaged, independent of any wall clock: a 5 %-selective scan
// of t with every monitor on at f = 0.01 touches (and charges CPU for) every
// row, but decodes only the rows that pass — sampled monitors judge their
// pages' cells in place — and of those only the two predicate columns:
// COUNT(padding) reads no column, so no string is decoded.
func TestMonitoredScanDecodesOnlyWhatSurvives(t *testing.T) {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())
	const n = 20000
	if _, err := datagen.BuildSynthetic(eng, n, 1); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(padding) FROM t WHERE c5 < 1000 AND c4 >= 0"
	for _, tc := range []struct {
		name string
		opts *pagefeedback.RunOptions
	}{
		{"plain", nil},
		{"monitored", &pagefeedback.RunOptions{MonitorAll: true, SampleFraction: 0.01}},
		{"monitored-parallel", &pagefeedback.RunOptions{MonitorAll: true, SampleFraction: 0.01, Parallelism: 2}},
	} {
		res, err := eng.Query(sql, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if label := res.Stats.Plan.Children[0].Label; !strings.Contains(label, "Scan(t)") {
			t.Fatalf("%s: plan reads through %s, want a full scan of t", tc.name, label)
		}
		const matching = 1000
		if got := res.Rows[0][0].Int; got != matching {
			t.Fatalf("%s: count = %d, want %d", tc.name, got, matching)
		}
		rt := res.Stats.Runtime
		if rt.RowsTouched < n {
			t.Errorf("%s: RowsTouched = %d, want every one of the %d rows charged", tc.name, rt.RowsTouched, n)
		}
		if rt.RowsDecoded != matching {
			t.Errorf("%s: RowsDecoded = %d of %d touched, want exactly the %d survivors", tc.name, rt.RowsDecoded, rt.RowsTouched, matching)
		}
		if rt.ValuesDecoded != 2*matching {
			t.Errorf("%s: ValuesDecoded = %d, want c5 and c4 of the %d survivors", tc.name, rt.ValuesDecoded, matching)
		}
		sampled := 0
		for _, r := range res.DPC {
			if r.Mechanism == exec.MechDPSample && !r.Degraded {
				sampled++
			}
		}
		if tc.opts != nil && sampled == 0 {
			t.Errorf("%s: no DPSample monitor ran, so the sampled-page decode path went unexercised: %+v", tc.name, res.DPC)
		}
	}
}

// TestScanDecodesOnlyDemandedColumns: the plan's column demand reaches the
// scan. Project(c1, c4) over ORDER BY c4 over a filter on c3 reads three
// columns of each predicate survivor, whatever the LIMIT keeps, and never
// the padding string.
func TestScanDecodesOnlyDemandedColumns(t *testing.T) {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())
	if _, err := datagen.BuildSynthetic(eng, 20000, 1); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []*pagefeedback.RunOptions{nil, {MonitorAll: true, SampleFraction: 0.5}} {
		res, err := eng.Query("SELECT c1, c4 FROM t WHERE c3 < 2000 ORDER BY c4 LIMIT 100", opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 100 {
			t.Fatalf("%d rows, want 100", len(res.Rows))
		}
		for i, row := range res.Rows {
			if len(row) != 2 || (i > 0 && row[1].Int < res.Rows[i-1][1].Int) {
				t.Fatalf("row %d = %v: want (c1, c4) in c4 order", i, row)
			}
		}
		rt := res.Stats.Runtime
		if rt.RowsDecoded != 2000 || rt.ValuesDecoded != 3*rt.RowsDecoded {
			t.Errorf("monitored=%v: decoded %d rows, %d values; want the 2000 survivors, 3 values each",
				opts != nil, rt.RowsDecoded, rt.ValuesDecoded)
		}
	}
}

// TestSeekDecodesOnlyDemandedColumns: an index seek's fetches decode only the
// columns the plan reads. COUNT(padding) reads none, so a fetch decodes its
// predicate column and no padding string, and re-running the seek over a
// range sixteen times wider costs no more allocations. The count equals the
// one a scan of the same predicate returns.
func TestSeekDecodesOnlyDemandedColumns(t *testing.T) {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())
	if _, err := datagen.BuildSynthetic(eng, 20000, 1); err != nil {
		t.Fatal(err)
	}
	count := func(root plan.Node) int64 {
		ex, err := exec.Build(exec.NewContext(eng.Pool()), root, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ex.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rows[0][0].Int
	}
	allocs := func(width int) float64 {
		q, err := eng.ParseQuery(fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE c2 BETWEEN 5000 AND %d", 5000+width-1))
		if err != nil {
			t.Fatal(err)
		}
		node, err := eng.Optimizer().Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		// Seek through ix_t_c2 and scan, whichever the optimizer chose.
		var tab *catalog.Table
		var pred expr.Conjunction
		switch leaf := node.(*plan.Agg).Input.(type) {
		case *plan.Seek:
			tab, pred = leaf.Tab, leaf.Pred
		case *plan.Scan:
			tab, pred = leaf.Tab, leaf.Pred
		default:
			t.Fatalf("width %d: plan %s", width, plan.Format(node))
		}
		ix, ok := tab.IndexByName("ix_t_c2")
		if !ok {
			t.Fatal("no index ix_t_c2")
		}
		ranges, _, ok := expr.IndexRanges(pred, ix.Cols)
		if !ok {
			t.Fatalf("width %d: ix_t_c2 cannot seek %s", width, pred)
		}
		seek := plan.NewAgg(&plan.Seek{Tab: tab, Index: ix, Ranges: ranges, Pred: pred}, plan.CountAgg, "padding")
		scan := plan.NewAgg(&plan.Scan{Tab: tab, Pred: pred}, plan.CountAgg, "padding")
		if got, want := count(seek), count(scan); got != want || got != int64(width) {
			t.Fatalf("width %d: the seek counts %d rows, the scan %d", width, got, want)
		}
		// One execution, re-run: its fetch arena has grown to the range, so
		// what is left per run is what the fetches themselves allocate.
		ex, err := exec.Build(exec.NewContext(eng.Pool()), seek, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if rows, err := ex.Run(); err != nil || rows[0][0].Int != int64(width) {
				t.Fatalf("width %d: rows %v, err %v", width, rows, err)
			}
		}
		run()
		return testing.AllocsPerRun(50, run)
	}
	narrow, wide := allocs(8), allocs(128)
	t.Logf("allocations per seek run: %.0f over 8 rows, %.0f over 128 rows", narrow, wide)
	if wide > narrow {
		t.Errorf("a 16x wider seek allocates %.0f times per run, the narrow one %.0f: fetches decode columns nothing reads", wide, narrow)
	}
}

// TestMonitoredScanAllocsFlatInPages: a warm monitored full scan allocates
// per query, never per page: decoding no string, pinning through the frame's
// own handle and judging sampled pages in place, a table four times larger
// costs the same allocations.
func TestMonitoredScanAllocsFlatInPages(t *testing.T) {
	const sql = "SELECT COUNT(padding) FROM t WHERE c5 < 500 AND c4 >= 0"
	opts := &pagefeedback.RunOptions{MonitorAll: true, SampleFraction: 0.1, WarmCache: true}
	allocs := func(rows int) (float64, int64) {
		eng := pagefeedback.New(pagefeedback.DefaultConfig())
		if _, err := datagen.BuildSynthetic(eng, rows, 1); err != nil {
			t.Fatal(err)
		}
		var touched int64
		run := func() {
			res, err := eng.Query(sql, opts)
			if err != nil || res.Rows[0][0].Int != 500 {
				t.Fatalf("rows=%d: %v, err %v", rows, res, err)
			}
			if label := res.Stats.Plan.Children[0].Label; !strings.HasPrefix(label, "Scan(t)") {
				t.Fatalf("rows=%d: plan reads through %s, want a serial full scan of t", rows, label)
			}
			touched = res.Stats.Runtime.RowsTouched
		}
		run() // warm the pool and the plan cache
		return testing.AllocsPerRun(20, run), touched
	}
	small, smallRows := allocs(10000)
	large, largeRows := allocs(40000)
	t.Logf("allocations per query: %.0f over %d rows, %.0f over %d rows", small, smallRows, large, largeRows)
	if large > small {
		t.Errorf("a 4x larger scan allocates %.0f times per query, the smaller one %.0f", large, small)
	}
}
