package exec

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// blockingTable loads rows into a fresh table clustered on its first column,
// on a pool of its own.
func blockingTable(t *testing.T, name string, schema *tuple.Schema, rows []tuple.Row) (*storage.BufferPool, *catalog.Table) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewDiskManager(storage.DefaultIOModel()), 4096)
	tab, err := catalog.New(pool).CreateClusteredTable(name, schema, []string{schema.Column(0).Name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return pool, tab
}

// blockingRun builds node at degree deg and runs it with an unlimited
// memory tracker; edit, when set, adjusts the built operators first.
func blockingRun(t *testing.T, pool *storage.BufferPool, node plan.Node, cfg *MonitorConfig, deg int, edit func(*Execution)) ([]tuple.Row, *Execution, *Context) {
	t.Helper()
	ctx := NewContext(pool)
	ctx.Parallelism = deg
	ctx.Mem = NewMemTracker(0)
	ex, err := Build(ctx, node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(ex)
	}
	rows, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rows, ex, ctx
}

// limitedSort is the Sort a Limit's build put right below it.
func limitedSort(ex *Execution) *SortOp {
	return unwrapOp(unwrapOp(ex.Root).(*LimitOp).input).(*SortOp)
}

// fullSort makes a built Limit-over-Sort keep every row and let the Limit
// cut, as a Sort without a limit does.
func fullSort(ex *Execution) { limitedSort(ex).limit = math.MaxInt }

// sameRows reports whether a and b hold equal rows in the same order; nil
// and empty are the same.
func sameRows(a, b []tuple.Row) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func sumRowMem(rows []tuple.Row) int64 {
	var n int64
	for _, r := range rows {
		n += rowMemSize(r)
	}
	return n
}

// TestSortLimitMatchesFullSort: a Sort under a Limit keeps only the first N
// rows in output order. Its result must be a stable sort of the input in
// arrival order cut at N, which the test computes itself, for ascending,
// descending and two-column orders over duplicate keys, for N from 0 to past
// the input. At degree 0 the rows must match exactly, so ties come back in
// arrival order; at degrees 2 and 4 arrival order depends on scheduling, so
// only the ordered sort keys must. Against the same plan sorting every row,
// ActRows, RowsTouched and DPC results must be equal, unmonitored and
// monitored, and the Sort must be charged exactly the kept rows' rowMemSize
// in place of every input row's. A serial budget between the two charges
// fails the full sort and holds the top-N one, with no page left pinned.
func TestSortLimitMatchesFullSort(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "d", Kind: tuple.KindDate},
		tuple.Column{Name: "s", Kind: tuple.KindString},
	)
	var rows []tuple.Row
	for i := int64(0); i < 3000; i++ {
		rows = append(rows, tuple.Row{tuple.Int64(i), tuple.Int64((i * 7) % 23),
			tuple.Date(i%11 - 5), tuple.Str(strings.Repeat("v", int(i%4)) + fmt.Sprint(i%3))})
	}
	pool, tab := blockingTable(t, "topn", schema, rows)
	p1 := expr.NewAtom("k", expr.Lt, tuple.Int64(20))
	p2 := expr.NewAtom("d", expr.Gt, tuple.Int64(-4))
	scan := &plan.Scan{Tab: tab, Pred: mustBind(t, expr.And(p1, p2), schema)}
	monitored := &MonitorConfig{Requests: []DPCRequest{
		{Table: "topn", Pred: expr.And(p1)},
		{Table: "topn", Pred: expr.And(p2)},
		{Table: "topn", Pred: expr.And(p1, p2)},
	}}
	arrival, _, _ := blockingRun(t, pool, scan, nil, 0, nil)
	n := len(arrival)
	if n < 100 || n == len(rows) {
		t.Fatalf("%d of %d rows survive; the predicate must keep some and drop some", n, len(rows))
	}

	for _, order := range []struct {
		cols []string
		desc bool
	}{
		{[]string{"k"}, false},
		{[]string{"k"}, true},
		{[]string{"k", "s"}, false},
		{[]string{"d", "s"}, true},
	} {
		ords, err := resolveAll(schema, order.cols)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(arrival)
		slices.SortStableFunc(want, func(a, b tuple.Row) int {
			for _, o := range ords {
				if c := a[o].Compare(b[o]); c != 0 {
					if order.desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
		keys := func(rows []tuple.Row) []string {
			out := make([]string, len(rows))
			for i, r := range rows {
				for _, o := range ords {
					out[i] += r[o].String() + "|"
				}
			}
			return out
		}
		for _, limit := range []int{0, 1, n - 1, n, n + 5} {
			node := &plan.Limit{Input: &plan.Sort{Input: scan, Cols: order.cols, Desc: order.desc}, N: limit}
			cut := want[:min(limit, n)]
			for _, deg := range []int{0, 2, 4} {
				for _, cfg := range []*MonitorConfig{nil, monitored} {
					name := fmt.Sprintf("%v desc=%v N=%d deg=%d monitored=%v", order.cols, order.desc, limit, deg, cfg != nil)
					got, topEx, topCtx := blockingRun(t, pool, node, cfg, deg, nil)
					full, fullEx, fullCtx := blockingRun(t, pool, node, cfg, deg, fullSort)
					if deg == 0 {
						if !sameRows(got, cut) || !sameRows(full, cut) {
							t.Fatalf("%s: top-N rows %v, full sort %v, want %v", name, got, full, cut)
						}
					} else if !reflect.DeepEqual(keys(got), keys(cut)) || !reflect.DeepEqual(keys(full), keys(cut)) {
						t.Fatalf("%s: top-N keys %v, full sort %v, want %v", name, keys(got), keys(full), keys(cut))
					} else if labels := opTreeLabels(topEx.Root.Stats()); !strings.Contains(labels, "ParallelScan") {
						t.Fatalf("%s: the scan under the sort ran serially: %s", name, labels)
					}
					if a, b := actRowsTree(topEx.Root.Stats()), actRowsTree(fullEx.Root.Stats()); !reflect.DeepEqual(a, b) {
						t.Errorf("%s: ActRows %v, full sort %v", name, a, b)
					}
					if a, b := topCtx.RowsTouched(), fullCtx.RowsTouched(); a != b {
						t.Errorf("%s: RowsTouched %d, full sort %d", name, a, b)
					}
					if a, b := topEx.DPCResults(), fullEx.DPCResults(); !reflect.DeepEqual(a, b) {
						t.Errorf("%s: DPC %+v, full sort %+v", name, a, b)
					}
					// Both runs charge the same scan and their result rows; the
					// sorts charge the kept rows and every input row.
					topRest := topCtx.Mem.Used() - sumRowMem(got) - sumRowMem(got)
					fullRest := fullCtx.Mem.Used() - sumRowMem(arrival) - sumRowMem(full)
					if topRest != fullRest {
						t.Errorf("%s: charged %d bytes, full sort %d; want the kept rows' %d in place of all rows' %d",
							name, topCtx.Mem.Used(), fullCtx.Mem.Used(), sumRowMem(got), sumRowMem(arrival))
					}
				}
			}
		}
	}

	node := &plan.Limit{Input: &plan.Sort{Input: scan, Cols: []string{"k"}}, N: 1}
	_, _, topCtx := blockingRun(t, pool, node, nil, 0, nil)
	budget := topCtx.Mem.Used()
	for _, edit := range []func(*Execution){nil, fullSort} {
		ctx := NewContext(pool)
		ctx.Mem = NewMemTracker(budget)
		ex, err := Build(ctx, node, nil)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(ex)
		}
		_, err = ex.Run()
		if edit == nil && err != nil {
			t.Errorf("top-N sort under a budget of its own peak %d: %v", budget, err)
		}
		if edit != nil && !errors.Is(err, ErrMemBudget) {
			t.Errorf("full sort under a budget of %d bytes: err %v, want the memory budget", budget, err)
		}
		if p := pool.Pinned(); p != 0 {
			t.Errorf("%d pages left pinned", p)
		}
	}
}

// TestGroupAggKeyOrder: GROUP BY emits its groups in ascending key order —
// INT keys at both ends of the int64 range, negative DATE keys, and VARCHAR
// keys holding 0x00 bytes — at degree 0 and 2. Serially, the memory charge
// is each group's state, encoded key length and map entry, and its output row
// twice: once for the operator's output, once for the result set.
func TestGroupAggKeyOrder(t *testing.T) {
	schema := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "ki", Kind: tuple.KindInt},
		tuple.Column{Name: "kd", Kind: tuple.KindDate},
		tuple.Column{Name: "ks", Kind: tuple.KindString},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	ints := []int64{math.MaxInt64, -math.MaxInt64, math.MinInt64, 0, -1, 1, -5000, 123456789}
	strs := []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "b", "\xff\x00"}
	var rows []tuple.Row
	for i := int64(0); i < 2400; i++ {
		ki := ints[i/2%8]
		if i%2 == 1 {
			ki = i%50 - 25
		}
		rows = append(rows, tuple.Row{tuple.Int64(i), tuple.Int64(ki),
			tuple.Date(i%37 - 20), tuple.Str(strs[i%8] + fmt.Sprint(i%5)), tuple.Int64(i % 10)})
	}
	pool, tab := blockingTable(t, "groups", schema, rows)
	for _, col := range []string{"ki", "kd", "ks"} {
		ord, err := plan.ResolveColumn(schema, col)
		if err != nil {
			t.Fatal(err)
		}
		sums := map[tuple.Value]int64{}
		for _, r := range rows {
			sums[r[ord]] += r[4].Int
		}
		var want []tuple.Row
		var charge int64
		for k, sum := range sums {
			want = append(want, tuple.Row{k, tuple.Int64(sum)})
			charge += groupStateMemSize + int64(len(tuple.AppendKey(nil, k))) + mapEntryOverhead
		}
		slices.SortFunc(want, func(a, b tuple.Row) int { return a[0].Compare(b[0]) })
		charge += 2 * sumRowMem(want)
		node := &plan.GroupAgg{Input: &plan.Scan{Tab: tab}, GroupCol: col, AggCol: "v", Func: plan.SumAgg,
			Schem: tuple.NewSchema(schema.Column(ord), tuple.Column{Name: "sum", Kind: tuple.KindInt})}
		for _, deg := range []int{0, 2} {
			got, _, ctx := blockingRun(t, pool, node, nil, deg, nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("GROUP BY %s deg=%d: %v, want %v", col, deg, got, want)
			}
			if deg == 0 && ctx.Mem.Used() != charge {
				t.Errorf("GROUP BY %s: charged %d bytes, want %d", col, ctx.Mem.Used(), charge)
			}
		}
	}
}

// TestHashBuildSizedOnce: the hash build retains its batches, then makes its
// table once for the retained row count. Empty, all-duplicate and distinct
// builds must join as before and be charged, to the byte, each build row's
// rowMemSize and map entry plus the probe's bit vector; a duplicated key's
// rows keep arrival order. TestRetainedRowsAllocPerBatch bounds the build's
// allocations per batch, distinct and all-duplicate. No test holds the size
// hint itself: a map grown from empty joins, charges and stays within that
// bound just the same, and Go maps report no capacity to check.
func TestHashBuildSizedOnce(t *testing.T) {
	const pageRows, small, large = 64, 4096, 16384
	open := func(ctx *Context, src *replaySource) *HashJoinOp {
		j := NewHashJoin(ctx, src, newReplaySource(pageRows, 1, pageRows), 0, 0, src.schema)
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		return j
	}
	for _, c := range []struct {
		name   string
		n, dup int
	}{
		{"empty", 0, 1},
		{"all-duplicate", small, small},
		{"distinct", small, 1},
		{"distinct large", large, 1},
	} {
		ctx := NewContext(nil)
		ctx.Mem = NewMemTracker(0)
		src := newReplaySource(c.n, c.dup, pageRows)
		j := open(ctx, src)
		distinct := 0
		if c.n > 0 {
			distinct = c.n / c.dup
		}
		if got, want := ctx.Mem.Used(), sumRowMem(src.rows)+int64(c.n)*mapEntryOverhead+int64(probeBits(distinct)/8); got != want {
			t.Errorf("%s: charged %d bytes, want %d", c.name, got, want)
		}
		if c.dup > 1 && !reflect.DeepEqual(j.table.ints[0], src.rows) {
			t.Errorf("%s: key 0 holds %d rows, want all %d in arrival order", c.name, len(j.table.ints[0]), c.n)
		}
		// Probe keys 0..63 each match dup build rows while the build has them.
		joined := 0
		for {
			var b Batch
			k, err := j.NextBatch(&b)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				break
			}
			joined += k
		}
		if want := min(c.n, pageRows*c.dup); joined != want {
			t.Errorf("%s: %d joined rows, want %d", c.name, joined, want)
		}
		j.Close()
	}
}
