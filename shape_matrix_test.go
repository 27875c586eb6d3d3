package pagefeedback

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"pagefeedback/internal/exec"
	"pagefeedback/internal/opt"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/tuple"
)

// buildJoinDB is buildTestDB plus a join partner u(c1, fk) whose fk column is
// unindexed, so a join on it runs as a hash join or, through t's ix_c5, as an
// index nested-loops join.
func buildJoinDB(t *testing.T, n int) *Engine {
	t.Helper()
	eng := buildTestDB(t, n)
	uschema := NewSchema(
		Column{Name: "c1", Kind: KindInt},
		Column{Name: "fk", Kind: KindInt},
	)
	if _, err := eng.CreateClusteredTable("u", uschema, []string{"c1"}); err != nil {
		t.Fatal(err)
	}
	urows := make([]Row, n/4)
	for i := range urows {
		urows[i] = Row{Int64(int64(i)), Int64(int64((i * 7) % n))}
	}
	if err := eng.Load("u", urows); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("u"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// parityQueries covers every operator: predicate scans, an index-driven
// selection, projection, LIMIT, ORDER BY, GROUP BY, aggregation, and a hash
// join on unindexed columns.
var parityQueries = []string{
	"SELECT COUNT(padding) FROM t WHERE c2 < 2000",
	"SELECT c1, c5 FROM t WHERE c5 < 500",
	"SELECT c1 FROM t WHERE c5 < 100",
	"SELECT c2, COUNT(*) FROM t WHERE c1 < 3000 GROUP BY c2",
	"SELECT c1, c2 FROM t WHERE c1 < 5000 LIMIT 37",
	"SELECT c1, c5 FROM t WHERE c5 < 300 ORDER BY c5",
	"SELECT COUNT(padding) FROM t, u WHERE u.c1 < 500 AND u.fk = t.c5",
}

// shapeQueries is the parity set plus one query per plan shape whose
// accounting depends on how many rows an operator hands its parent per call:
// a LIMIT over every access path and join method, a limited ORDER BY DESC and
// GROUP BY, a merge join that stops when its inner input runs out, and the
// unlimited covering, index nested-loops and intersection paths. shape lists,
// separated by "|", plan labels the optimizer must choose on the 12,000-row
// buildJoinDB, top-down, so a cost-model change cannot silently drop a shape.
// ORDER BY columns are unique, so the reference order is the only correct one.
var shapeQueries = []struct{ sql, shape string }{
	{parityQueries[0], "ClusteredIndexScan(t: c2 < 2000)"},
	{parityQueries[1], "ClusteredIndexScan(t: c5 < 500)"},
	{parityQueries[2], "ClusteredIndexScan(t: c5 < 100)"},
	{parityQueries[3], "ClusteredIndexRangeScan"},
	{parityQueries[4], "ClusteredIndexRangeScan"},
	{parityQueries[5], "Sort(c5)"},
	{parityQueries[6], "HashJoin"},
	{"SELECT c5 FROM t WHERE c5 < 100 LIMIT 2", "Limit(2)|CoveringIndexScan"},
	{"SELECT t.c1 FROM t, u WHERE u.c1 < 3 AND u.fk = t.c5 LIMIT 1", "Limit(1)|IndexNestedLoopsJoin"},
	{"SELECT c1 FROM t WHERE c5 < 15 AND c2 < 1500 LIMIT 2", "Limit(2)|IndexIntersection"},
	{"SELECT t.c2 FROM t, u WHERE t.c1 < 4000 AND u.c1 = t.c1 LIMIT 4", "Limit(4)|MergeJoin"},
	{"SELECT t.c1 FROM t, u WHERE u.c1 < 30 AND u.fk = t.c5 LIMIT 3", "Limit(3)|HashJoin"},
	{"SELECT c1, c5 FROM t WHERE c5 < 300 ORDER BY c5 DESC LIMIT 7", "Limit(7)|Sort(c5 DESC)"},
	{"SELECT c5, COUNT(*) FROM t WHERE c5 < 2000 GROUP BY c5 LIMIT 5", "Limit(5)|GroupAgg(c5"},
	{"SELECT COUNT(*) FROM t, u WHERE u.c1 < 2000 AND u.c1 = t.c1", "MergeJoin"},
	{"SELECT COUNT(padding) FROM t, u WHERE u.c1 < 5 AND u.fk = t.c5", "IndexNestedLoopsJoin"},
	{"SELECT c1 FROM t WHERE c5 < 15 AND c2 < 1500", "IndexIntersection"},
}

// shapePin is what one matrix query cost on the default path of the executor
// that still had a row-at-a-time protocol beside the batch one: rows touched,
// logical and physical reads, the simulated clock, and a digest of the result
// rows (as a multiset) and every DPCResult.
type shapePin struct {
	touched, logical, physical int64
	sim                        time.Duration
	digest                     string
}

// shapePins holds the serial pins, one per shapeQueries entry, without and
// with MonitorAll. Every run is cold (the pool is reset per query) on a fresh
// engine, and the disk model classifies each query's first read by where the
// previous one left the head, so the values hold for this exact sequence.
var shapePins = map[bool][]shapePin{
	false: {
		{14000, 153, 153, 37100000, "1d8fa3c8ab49d50b"},
		{12500, 153, 153, 31700000, "477cb21fc4c1c4ec"},
		{12100, 153, 153, 31300000, "629f2f7b5dd0b3ab"},
		{6000, 39, 39, 13800000, "7d5887a5399bc658"},
		{116, 2, 2, 8116000, "b26aa2768d9320eb"},
		{12600, 153, 153, 35700000, "178e9b838fae90ef"},
		{28000, 166, 166, 56300000, "792376c209f33895"},
		{4, 2, 2, 8004000, "82c1315e6c757f33"},
		{6, 5, 5, 16106000, "620b1e81659a4f7b"},
		{1519, 10, 9, 21919000, "5e3299ad934d5123"},
		{356, 4, 4, 16356000, "e169bdf59fac30d2"},
		{3223, 23, 23, 21123000, "83999be583212fb7"},
		{12307, 153, 153, 35407000, "fdb2a1589bc1babe"},
		{14000, 37, 37, 25500000, "72d9f34e9299de83"},
		{11055, 40, 40, 26755000, "1d8fa3c8ab49d50b"},
		{20, 17, 9, 28220000, "f0b5c2c2211c8d67"},
		{1523, 12, 11, 26023000, "56c81a47fb577bb9"},
	},
	true: {
		{14000, 153, 153, 37100000, "c7b56430fbe94dc5"},
		{12500, 153, 153, 31700000, "df143d3b13a85072"},
		{12100, 153, 153, 31300000, "20a16fe7f1b5e8e1"},
		{6000, 39, 39, 13800000, "e5dd10608507abc9"},
		{116, 2, 2, 8116000, "2a9f5c869c655246"},
		{12600, 153, 153, 35700000, "d46b80da65f6a6d9"},
		{28000, 166, 166, 56300000, "297ac423632492c0"},
		{4, 2, 2, 8004000, "34e1058e62280146"},
		{6, 5, 5, 16106000, "407810a6058a129e"},
		{1519, 10, 9, 21919000, "f3c846c02b719616"},
		{356, 4, 4, 16356000, "23be23adf694242f"},
		{3223, 23, 23, 21123000, "c98bec8e5e9621a4"},
		{12307, 153, 153, 35407000, "235563c542e709e4"},
		{14000, 37, 37, 25500000, "3b04c0a01b53bf3f"},
		{11055, 40, 40, 26755000, "a05963604868da9a"},
		{20, 17, 9, 28220000, "27944b7c957532e7"},
		{1523, 12, 11, 26023000, "a1d53e29c63a574b"},
	},
}

// shapeExportPins holds the digest of ExportFeedback after the matrix's
// results are applied in order, without and with MonitorAll.
var shapeExportPins = map[bool]string{false: "b37cfecbf23c5fb6", true: "625cacec90b5071a"}

// TestVectorizedRowParity checks the batch executor, with MonitorAll, against
// a row-at-a-time brute-force reference (refRows) and against the counters
// the parent's default path recorded; see runShapeMatrix.
func TestVectorizedRowParity(t *testing.T) { runShapeMatrix(t, true) }

// TestVectorizedRawPathParity is TestVectorizedRowParity without monitors:
// unmonitored scans of fixed-width tables take the late-materializing raw
// path (the predicate judged on encoded page bytes, only survivors decoded),
// and that path must be invisible too.
func TestVectorizedRawPathParity(t *testing.T) { runShapeMatrix(t, false) }

// runShapeMatrix runs shapeQueries serially and at degree 4, each degree on a
// fresh engine, monitored or not. Every result must match a brute-force
// evaluation of the query (refRows); the serial runs must reproduce shapePins
// exactly, and the parallel runs the serial pins' values and feedback export
// too, except where the simulated clock depends on worker scheduling:
// partitioned scans interleave their reads (the disk model charges a seek for
// every jump of the head), and leave the head where the last worker stopped,
// so the clock is pinned only for serial plans that follow a serial plan.
func runShapeMatrix(t *testing.T, monitored bool) {
	const n = 12000
	ref := buildJoinDB(t, n)
	var record strings.Builder
	for _, degree := range []int{0, 4} {
		mode := fmt.Sprintf("degree %d, monitored %v", degree, monitored)
		eng := buildJoinDB(t, n)
		var results []*Result
		prevSerial := true
		for i, sq := range shapeQueries {
			q, err := eng.ParseQuery(sq.sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Query(sq.sql, &RunOptions{MonitorAll: monitored, Parallelism: degree})
			if err != nil {
				t.Fatalf("%s: %s: %v", mode, sq.sql, err)
			}
			results = append(results, res)
			if plan := plan.Format(res.Plan); !hasShape(plan, sq.shape) {
				t.Errorf("%s: %s: plan lacks %q:\n%s", mode, sq.sql, sq.shape, plan)
			}
			checkAgainstReference(t, mode, sq.sql, res, refRows(t, ref, q), q)

			rt := res.Stats.Runtime
			got := shapePin{rt.RowsTouched, rt.LogicalReads, rt.PhysicalReads, rt.SimulatedTotal, shapeDigest(res)}
			if degree == 0 {
				fmt.Fprintf(&record, "\t\t{%d, %d, %d, %d, %q},\n", got.touched, got.logical, got.physical, int64(got.sim), got.digest)
			}
			serial := rt.Parallelism == 0
			want := shapePins[monitored][i]
			if degree > 0 && !(serial && prevSerial) {
				got.sim = want.sim
			}
			if got != want {
				t.Errorf("%s: %s: got %+v, pinned %+v", mode, sq.sql, got, want)
			}
			prevSerial = serial
		}
		for _, res := range results {
			eng.ApplyFeedback(res)
		}
		var buf bytes.Buffer
		if err := eng.ExportFeedback(&buf); err != nil {
			t.Fatal(err)
		}
		export := digestOf(buf.String())
		if degree == 0 {
			fmt.Fprintf(&record, "\t// export %q\n", export)
		}
		if want := shapeExportPins[monitored]; export != want {
			t.Errorf("%s: feedback export digest %s, pinned %s", mode, export, want)
		}
	}
	if t.Failed() {
		t.Logf("serial pins of this run (monitored %v):\n%s", monitored, record.String())
	}
}

// hasShape reports whether the "|"-separated labels of shape appear in the
// formatted plan in order.
func hasShape(plan, shape string) bool {
	for _, label := range strings.Split(shape, "|") {
		i := strings.Index(plan, label)
		if i < 0 {
			return false
		}
		plan = plan[i+len(label):]
	}
	return true
}

// shapeDigest condenses a result's rows (sorted, so partition order does not
// matter) and its DPC results into a short hex digest.
func shapeDigest(res *Result) string {
	rows := renderRows(res)
	sort.Strings(rows)
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	for _, r := range res.DPC {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	return digestOf(b.String())
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// checkAgainstReference compares an engine result with the reference rows:
// in order where the query fixes an order (ORDER BY, GROUP BY, a single
// aggregate), as a sub-multiset of the right size where a LIMIT picks
// arbitrary rows, and as an equal multiset otherwise.
func checkAgainstReference(t *testing.T, mode, sql string, res *Result, want []tuple.Row, q *opt.Query) {
	t.Helper()
	got := renderRows(res)
	exp := renderRows(&Result{Rows: want})
	if q.OrderBy != "" || q.IsGrouped() || !q.IsProjection() {
		if !equalStringSlices(got, exp) {
			t.Errorf("%s: %s: rows %v, reference %v", mode, sql, got, exp)
		}
		return
	}
	sort.Strings(got)
	sort.Strings(exp)
	if q.Limit == 0 {
		if !equalStringSlices(got, exp) {
			t.Errorf("%s: %s: %d rows differ from the reference's %d", mode, sql, len(got), len(exp))
		}
		return
	}
	if wantN := min(q.Limit, len(exp)); len(got) != wantN {
		t.Fatalf("%s: %s: %d rows, want %d", mode, sql, len(got), wantN)
	}
	pool := map[string]int{}
	for _, r := range exp {
		pool[r]++
	}
	for _, r := range got {
		if pool[r]--; pool[r] < 0 {
			t.Errorf("%s: %s: row %s is not in the reference result", mode, sql, r)
		}
	}
}

// refRows evaluates q by brute force: a full scan of each table judged by
// Conjunction.Eval, a nested-loop join, map grouping, a stable sort, then the
// limit. It shares the catalog's row iterator with the engine and nothing
// else, and runs on its own engine so its reads never move the measured
// engine's disk head.
func refRows(t *testing.T, eng *Engine, q *opt.Query) []tuple.Row {
	t.Helper()
	scan := func(table string, pred Conjunction) ([]tuple.Row, *tuple.Schema) {
		tab, ok := eng.Catalog().Table(table)
		if !ok {
			t.Fatalf("reference: no table %q", table)
		}
		bound, err := pred.Bind(tab.Schema)
		if err != nil {
			t.Fatal(err)
		}
		it, err := tab.ScanAll()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var rows []tuple.Row
		for it.Next() {
			if bound.Eval(it.Row()) {
				rows = append(rows, it.Row().Clone())
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return rows, tab.Schema
	}
	col := func(s *tuple.Schema, name string) int {
		o, err := plan.ResolveColumn(s, name)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	rows, schema := scan(q.Table, q.Pred)
	if q.IsJoin() {
		inner, innerSchema := scan(q.Table2, q.Pred2)
		jo, ji := col(schema, q.JoinCol), col(innerSchema, q.JoinCol2)
		var joined []tuple.Row
		for _, a := range rows {
			for _, b := range inner {
				if a[jo].Compare(b[ji]) == 0 {
					joined = append(joined, append(a.Clone(), b...))
				}
			}
		}
		rows, schema = joined, plan.JoinSchema(q.Table, schema, q.Table2, innerSchema)
	}

	fold := func(group []tuple.Row) tuple.Value {
		if q.Agg == plan.CountAgg {
			return tuple.Int64(int64(len(group)))
		}
		var acc int64
		o := col(schema, q.AggCol)
		for i, r := range group {
			v := r[o].Int
			switch {
			case q.Agg == plan.SumAgg:
				acc += v
			case i == 0, q.Agg == plan.MinAgg && v < acc, q.Agg == plan.MaxAgg && v > acc:
				acc = v
			}
		}
		return tuple.Int64(acc)
	}
	var out []tuple.Row
	switch {
	case q.IsGrouped():
		g := col(schema, q.GroupBy)
		groups := map[string][]tuple.Row{}
		var keys []tuple.Value
		for _, r := range rows {
			k := r[g].String()
			if groups[k] == nil {
				keys = append(keys, r[g])
			}
			groups[k] = append(groups[k], r)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
		for _, k := range keys {
			out = append(out, tuple.Row{k, fold(groups[k.String()])})
		}
	case !q.IsProjection():
		return []tuple.Row{{fold(rows)}}
	default:
		if q.OrderBy != "" {
			o := col(schema, q.OrderBy)
			sort.SliceStable(rows, func(i, j int) bool {
				c := rows[i][o].Compare(rows[j][o])
				if q.OrderDesc {
					return c > 0
				}
				return c < 0
			})
		}
		cols := q.SelectCols
		if q.Star {
			cols = nil
			for i := 0; i < schema.NumColumns(); i++ {
				cols = append(cols, schema.Column(i).Name)
			}
		}
		for _, r := range rows {
			var p tuple.Row
			for _, c := range cols {
				p = append(p, r[col(schema, c)])
			}
			out = append(out, p)
		}
	}
	if q.Limit > 0 && q.Limit < len(out) && (q.OrderBy != "" || q.IsGrouped()) {
		out = out[:q.Limit]
	}
	return out
}

// renderRows renders result rows in order.
func renderRows(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var b strings.Builder
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		out = append(out, b.String())
	}
	return out
}

// renderDPCResults renders the monitored feedback in result order.
func renderDPCResults(res *Result) []string {
	out := make([]string, 0, len(res.DPC))
	for _, r := range res.DPC {
		e := r.Request.Pred.String()
		if r.Request.Join {
			e = "<join>"
		}
		out = append(out, fmt.Sprintf("%s|%s|%s|%d|%d", r.Request.Table, e, r.Mechanism, r.DPC, r.Cardinality))
	}
	return out
}

// deterministicRuntime zeroes the fields of a runtime-stats record that
// depend on timing or on the plan cache, leaving the slice two runs of the
// same query sequence must agree on byte for byte: simulated cost, read
// counts, rows touched, memory peak, monitor accounting, compiled predicates.
func deterministicRuntime(rt exec.RuntimeStats) exec.RuntimeStats {
	rt.QueueWait, rt.QueueDepth = 0, 0
	rt.PoolWaits, rt.PoolWaitTime = 0, 0
	rt.PlanCacheHit = false
	rt.BatchesProcessed = 0
	return rt
}

func equalStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
