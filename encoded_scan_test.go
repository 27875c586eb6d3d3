package pagefeedback_test

import (
	"strings"
	"testing"

	"pagefeedback"
	"pagefeedback/internal/datagen"
	"pagefeedback/internal/exec"
)

// rangeScanAllocBudget is what exec.Build plus Run of the oltp_point range
// shape allocated before scans judged their predicate on page bytes (PR 11,
// commit b0b6991). The repo benchmark bounds oltp_point's allocs_per_query at
// 1 %, and three extra allocations per scan build are enough to break it.
const rangeScanAllocBudget = 44

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
// row, but decodes only the rows that pass plus the rows of the ~1 % of pages
// a sampled monitor has in its sample.
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
		if rt.RowsDecoded < matching || rt.RowsDecoded*10 >= rt.RowsTouched {
			t.Errorf("%s: RowsDecoded = %d of %d touched, want at least the %d survivors and under 10 %%",
				tc.name, rt.RowsDecoded, rt.RowsTouched, matching)
		}
		if tc.opts == nil && rt.RowsDecoded != matching {
			t.Errorf("%s: RowsDecoded = %d with no monitor attached, want exactly the %d survivors", tc.name, rt.RowsDecoded, matching)
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
