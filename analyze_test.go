package pagefeedback

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pagefeedback/internal/exec"
)

func TestQError(t *testing.T) {
	cases := []struct {
		est, act float64
		want     float64
	}{
		{0, 0, 1},  // vacuous estimate: nothing predicted, nothing seen
		{-3, 0, 1}, // non-positive both sides collapses to vacuous
		{5, 0, math.Inf(1)},
		{0, 5, math.Inf(1)},
		{10, 5, 2},
		{5, 10, 2}, // symmetric: under- and over-estimation score alike
		{7, 7, 1},
	}
	for _, c := range cases {
		if got := qError(c.est, c.act); got != c.want {
			t.Errorf("qError(%v, %v) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
	if got := qerrString(10, 5); got != "2.00" {
		t.Errorf("qerrString(10,5) = %q, want \"2.00\"", got)
	}
	if got := qerrString(5, 0); got != "inf" {
		t.Errorf("qerrString(5,0) = %q, want \"inf\"", got)
	}
}

// analyzeGoldens pins the deterministic rendering of FormatAnalyze for one
// plan of every shape the renderer distinguishes: clustered-range point
// lookup, secondary-index seek, full scan under an aggregate, index
// nested-loops join, hash join, and a quarantined monitor. The numbers are a
// pure function of the 8000-row buildJoinDB fixture and the optimizer — any
// drift here is a real behavior change, not noise.
var analyzeGoldens = []struct {
	name  string
	query string
	opts  RunOptions
	want  string
}{
	{
		name:  "clustered-point",
		query: "SELECT c2 FROM t WHERE c1 = 4242",
		opts:  RunOptions{MonitorAll: true},
		want: `Project  (rows: est=1 act=1 q-err=1.00)
  RangeScan(t)  (rows: est=1 act=1 q-err=1.00)
    dpc c1 = 4242: est=1 act=1 q-err=1.00 [exact-scan]
rows: 1
monitors: 1 requested, 0 quarantined
`,
	},
	{
		name:  "index-seek",
		query: "SELECT c2 FROM t WHERE c5 = 123",
		opts:  RunOptions{MonitorAll: true},
		want: `Project  (rows: est=1 act=1 q-err=1.00)
  IndexSeek(t.ix_c5)  (rows: est=1 act=1 q-err=1.00)
    dpc c5 = 123: est=1 act=1 q-err=1.00 [linear-counting]
rows: 1
monitors: 1 requested, 0 quarantined
`,
	},
	{
		name:  "scan-aggregate",
		query: "SELECT COUNT(padding) FROM t WHERE c2 < 2000",
		opts:  RunOptions{MonitorAll: true},
		want: `Aggregate(count)  (rows: est=1 act=1 q-err=1.00)
  Scan(t)  (rows: est=2000 act=2000 q-err=1.00)
    dpc c2 < 2000: est=102 act=26 q-err=3.92 [exact-scan]
rows: 1
monitors: 1 requested, 0 quarantined
`,
	},
	{
		name:  "inl-join",
		query: "SELECT COUNT(padding) FROM t, u WHERE u.c1 < 5 AND u.fk = t.c5",
		opts:  RunOptions{MonitorAll: true},
		want: `Aggregate(count)  (rows: est=1 act=1 q-err=1.00)
  INLJoin(t.ix_c5)  (rows: est=5 act=5 q-err=1.00)
    dpc <join predicate>: est=5 act=5 q-err=1.00 [linear-counting-inl]
    Scan(u)  (rows: est=5 act=5 q-err=1.00)
      dpc c1 < 5: est=4 act=1 q-err=4.00 [exact-scan]
unplanted monitors:
  dpc(u, <join predicate>): est=8 act=0 [unsatisfiable] (the current plan does not evaluate this expression where page ids are visible (§II-B))
rows: 1
monitors: 3 requested, 0 quarantined
`,
	},
	{
		name:  "hash-join",
		query: "SELECT COUNT(padding) FROM t, u WHERE u.c1 < 500 AND u.fk = t.c5",
		opts:  RunOptions{MonitorAll: true},
		want: `Aggregate(count)  (rows: est=1 act=1 q-err=1.00)
  HashJoin  (rows: est=500 act=500 q-err=1.00)
    Scan(u)  (rows: est=500 act=500 q-err=1.00)
      dpc c1 < 500: est=8 act=2 q-err=4.00 [exact-scan]
    Scan(t)  (rows: est=8000 act=8000 q-err=1.00)
      dpc <join predicate>: est=101 act=0 q-err=inf [bitvector+dpsample]
unplanted monitors:
  dpc(u, <join predicate>): est=8 act=0 [unsatisfiable] (the current plan does not evaluate this expression where page ids are visible (§II-B))
rows: 1
monitors: 3 requested, 0 quarantined
`,
	},
	{
		name:  "quarantined-monitor",
		query: "SELECT COUNT(padding) FROM t WHERE c2 < 2000",
		opts:  RunOptions{MonitorAll: true, failMonitors: []string{MechExactScan}},
		want: `Aggregate(count)  (rows: est=1 act=1 q-err=1.00)
  Scan(t)  (rows: est=2000 act=2000 q-err=1.00)
    dpc c2 < 2000: est=102 act=0 q-err=inf [exact-scan, quarantined]
rows: 1
monitors: 1 requested, 1 quarantined
`,
	},
}

func TestAnalyzeGolden(t *testing.T) {
	eng := buildJoinDB(t, 8000)
	for _, g := range analyzeGoldens {
		opts := g.opts
		res, err := eng.Query(g.query, &opts)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := FormatAnalyze(res, AnalyzeOptions{}); got != g.want {
			t.Errorf("%s: analyze output drifted\n--- got ---\n%s--- want ---\n%s", g.name, got, g.want)
		}
	}
}

// TestAnalyzeGoldenParallel pins the parallel plan rendering. The only
// difference a parallel run is allowed to show in deterministic mode is the
// scan label (ParallelScan(t) xN vs the serial fallback on a single-core
// host): row counts and DPC feedback are documented to match a serial run.
func TestAnalyzeGoldenParallel(t *testing.T) {
	eng := buildJoinDB(t, 8000)
	res, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 2000",
		&RunOptions{MonitorAll: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	scan := "Scan(t)"
	if p := res.Stats.Runtime.Parallelism; p >= 2 {
		scan = fmt.Sprintf("ParallelScan(t) x%d", p)
	}
	want := `Aggregate(count)  (rows: est=1 act=1 q-err=1.00)
  ` + scan + `  (rows: est=2000 act=2000 q-err=1.00)
    dpc c2 < 2000: est=102 act=26 q-err=3.92 [exact-scan]
rows: 1
monitors: 1 requested, 0 quarantined
`
	if got := FormatAnalyze(res, AnalyzeOptions{}); got != want {
		t.Errorf("parallel analyze output drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExplainAnalyzeWithTimes exercises the public entry point: the query
// really runs with tracing forced on, and the WithTimes rendering carries
// the nondeterministic annotations the golden mode suppresses.
func TestExplainAnalyzeWithTimes(t *testing.T) {
	eng := buildJoinDB(t, 8000)
	out, err := eng.ExplainAnalyze("SELECT COUNT(padding) FROM t WHERE c2 < 2000",
		&RunOptions{MonitorAll: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Scan(t)", "q-err=3.92", "(wall=", "calls=",
		"time: wall=", "trace: ", " spans (0 dropped)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze output missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeMonotonicity is a CERT-style check (Cardinality Estimation
// Robustness Testing: widen the predicate, watch the measured quantities —
// they must never shrink). It needs no golden numbers, so it guards the
// monitoring pipeline under any fixture change.
func TestAnalyzeMonotonicity(t *testing.T) {
	eng := buildJoinDB(t, 8000)
	tab, ok := eng.Catalog().Table("t")
	if !ok {
		t.Fatal("table t missing")
	}
	pages := tab.NumPages()
	for _, col := range []string{"c2", "c5"} {
		prevDPC, prevRows := int64(-1), int64(-1)
		for _, bound := range []int{250, 500, 1000, 2000, 4000, 8000} {
			q := fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE %s < %d", col, bound)
			res, err := eng.Query(q, &RunOptions{MonitorAll: true})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if len(res.DPC) != 1 {
				t.Fatalf("%s: want 1 monitor, got %d", q, len(res.DPC))
			}
			dpc := res.DPC[0].DPC
			if dpc < prevDPC {
				t.Errorf("%s: DPC shrank when predicate widened: %d after %d", q, dpc, prevDPC)
			}
			if dpc > pages {
				t.Errorf("%s: DPC %d exceeds table pages %d", q, dpc, pages)
			}
			rows := res.Stats.Plan.Children[0].ActRows
			if rows < prevRows {
				t.Errorf("%s: scan rows shrank when predicate widened: %d after %d", q, rows, prevRows)
			}
			prevDPC, prevRows = dpc, rows
		}
	}
}

// TestAnalyzeTreeInvariants walks the executed operator trees of the parity
// query set and asserts the structural facts the ANALYZE rendering relies
// on: single-child reducer operators never emit more rows than they
// consume, actual row counts are non-negative, and every planted monitor
// resolves to an operator that exists in the tree.
func TestAnalyzeTreeInvariants(t *testing.T) {
	eng := buildJoinDB(t, 8000)
	queries := append([]string{}, parityQueries...)
	queries = append(queries,
		"SELECT c2 FROM t WHERE c5 = 123",
		"SELECT COUNT(padding) FROM t, u WHERE u.c1 < 5 AND u.fk = t.c5",
	)
	for _, q := range queries {
		res, err := eng.Query(q, &RunOptions{MonitorAll: true})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		ops := map[int32]bool{}
		var walk func(op exec.OperatorStats)
		walk = func(op exec.OperatorStats) {
			ops[op.OpID] = true
			if op.ActRows < 0 {
				t.Errorf("%s: %s has negative ActRows %d", q, op.Label, op.ActRows)
			}
			// Joins can fan out; every single-child operator in this engine
			// (Project, Aggregate, Sort, Limit, GroupBy) reduces or preserves,
			// except the INL join whose sole child is just its outer input.
			if len(op.Children) == 1 && !strings.HasPrefix(op.Label, "INLJoin") {
				if op.ActRows > op.Children[0].ActRows {
					t.Errorf("%s: %s emits %d rows from %d inputs", q, op.Label, op.ActRows, op.Children[0].ActRows)
				}
			}
			for _, c := range op.Children {
				walk(c)
			}
		}
		walk(res.Stats.Plan)
		for _, r := range res.DPC {
			if r.OpID >= 0 && !ops[r.OpID] {
				t.Errorf("%s: monitor on %s points at unknown operator %d", q, r.Request.Table, r.OpID)
			}
		}
	}
}
