package exec

import (
	"fmt"
	"slices"
	"testing"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/tuple"
)

// regionTable adds region(zone, state, label, pop), clustered on zone, whose
// VARCHAR state joins sales.state: CA has two rows, AZ none, and TX matches
// no sale.
func regionTable(t *testing.T, e *env) *catalog.Table {
	t.Helper()
	schema := tuple.NewSchema(
		tuple.Column{Name: "zone", Kind: tuple.KindInt},
		tuple.Column{Name: "state", Kind: tuple.KindString},
		tuple.Column{Name: "label", Kind: tuple.KindString},
		tuple.Column{Name: "pop", Kind: tuple.KindInt},
	)
	tab, err := e.cat.CreateClusteredTable("region", schema, []string{"zone"})
	if err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Row
	for i, r := range []struct{ state, label string }{
		{"CA", "west"}, {"WA", "north"}, {"OR", "north"}, {"NV", "desert"}, {"CA", "coast"}, {"TX", "south"},
	} {
		rows = append(rows, tuple.Row{tuple.Int64(int64(i)), tuple.Str(r.state), tuple.Str(r.label), tuple.Int64(int64(10 * i))})
	}
	if _, err := tab.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return tab
}

// findHashJoin returns the hash join of a built tree whose joins sit under
// projections, sorts and aggregates.
func findHashJoin(t *testing.T, op Operator) *HashJoinOp {
	t.Helper()
	switch o := unwrapOp(op).(type) {
	case *HashJoinOp:
		return o
	case *ProjectOp:
		return findHashJoin(t, o.input)
	case *SortOp:
		return findHashJoin(t, o.input)
	case *AggOp:
		return findHashJoin(t, o.input)
	case *GroupAggOp:
		return findHashJoin(t, o.input)
	}
	t.Fatalf("no hash join under %T", unwrapOp(op))
	return nil
}

// buildSpy stands in for a hash join's probe input and reads the query's
// memory tracker when the join opens it: the build is complete, and no
// operator has charged anything else yet.
type buildSpy struct {
	Operator
	mem  *MemTracker
	used int64
}

func (s *buildSpy) Open() error {
	s.used = s.mem.Used()
	return s.Operator.Open()
}

// TestHashBuildRetainsDemandedColumns: a hash build keeps only the build
// columns the plan above reads, key included, and the joined rows it hands
// up — serially, from the exchange workers at degrees 2 and 4, or folded into
// an aggregate there — answer exactly as the same query's merge-join plan
// does. The build is charged len(cols)·valueMemSize plus the kept strings
// plus mapEntryOverhead per row, and the probe's bit vector on top.
func TestHashBuildRetainsDemandedColumns(t *testing.T) {
	e := newEnv(t)
	hs := heapTable(t, e, "hsales", envRows)
	region := regionTable(t, e)
	salesBuild := func() *plan.Scan {
		return &plan.Scan{Tab: e.sales, Pred: mustBind(t, expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(800))), e.sales.Schema)}
	}
	join := func(m plan.JoinMethod, outer *plan.Scan, inner plan.Node, innerTab *catalog.Table, col string) *plan.Join {
		return &plan.Join{
			Method: m, Outer: outer, Inner: inner, OuterCol: col, InnerCol: col,
			SortOuter: m == plan.MergeJoin, SortInner: m == plan.MergeJoin,
			Schem: plan.JoinSchema(outer.Tab.Name, outer.Tab.Schema, innerTab.Name, innerTab.Schema),
		}
	}
	// sales(id, c2, c5, state, pad) with c2 < 800 builds; hsales probes on
	// c5, one match per build row.
	salesJoin := func(m plan.JoinMethod) *plan.Join {
		return join(m, salesBuild(), &plan.Scan{Tab: hs}, hs, "c5")
	}
	must := func(n plan.Node, err error) plan.Node {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	project := func(in plan.Node, cols ...string) plan.Node {
		p, err := plan.NewProject(in, cols)
		return must(p, err)
	}
	cases := []struct {
		name    string
		plan    func(m plan.JoinMethod) plan.Node
		build   func() *plan.Scan
		cols    []int // build ordinals the hash build keeps
		bare    bool  // the probe is a bare scan: at degree > 1 the workers join
		ordered bool  // ORDER BY: compare rows in order
	}{
		{name: "project", build: salesBuild, cols: []int{2, 3}, bare: true, plan: func(m plan.JoinMethod) plan.Node {
			return project(salesJoin(m), "sales.state", "hsales.id")
		}},
		{name: "select-star", build: salesBuild, cols: []int{0, 1, 2, 3, 4}, bare: true, plan: func(m plan.JoinMethod) plan.Node {
			return salesJoin(m)
		}},
		{name: "count", build: salesBuild, cols: []int{2}, bare: true, plan: func(m plan.JoinMethod) plan.Node {
			return plan.NewAgg(salesJoin(m), plan.CountAgg, "")
		}},
		{name: "sum-build-col", build: salesBuild, cols: []int{1, 2}, bare: true, plan: func(m plan.JoinMethod) plan.Node {
			return plan.NewAgg(salesJoin(m), plan.SumAgg, "sales.c2")
		}},
		{name: "min-build-col", build: salesBuild, cols: []int{0, 2}, bare: true, plan: func(m plan.JoinMethod) plan.Node {
			return plan.NewAgg(salesJoin(m), plan.MinAgg, "sales.id")
		}},
		{name: "max-build-col", build: salesBuild, cols: []int{1, 2}, bare: true, plan: func(m plan.JoinMethod) plan.Node {
			return plan.NewAgg(salesJoin(m), plan.MaxAgg, "sales.c2")
		}},
		{name: "probe-not-bare", build: salesBuild, cols: []int{0, 2}, plan: func(m plan.JoinMethod) plan.Node {
			sorted := &plan.Sort{Input: &plan.Scan{Tab: hs}, Cols: []string{"id"}}
			return project(join(m, salesBuild(), sorted, hs, "c5"), "sales.id", "hsales.pad")
		}},
		{name: "varchar-key", build: func() *plan.Scan { return &plan.Scan{Tab: region} }, cols: []int{1, 2}, bare: true, plan: func(m plan.JoinMethod) plan.Node {
			return project(join(m, &plan.Scan{Tab: region}, &plan.Scan{Tab: e.sales}, e.sales, "state"), "region.label", "sales.id")
		}},
		{name: "group-by-build-col", build: salesBuild, cols: []int{2, 3}, bare: true, plan: func(m plan.JoinMethod) plan.Node {
			g, err := plan.NewGroupAgg(salesJoin(m), "sales.state", plan.SumAgg, "hsales.id")
			return must(g, err)
		}},
		{name: "order-by-build-col", build: salesBuild, cols: []int{1, 2}, bare: true, ordered: true, plan: func(m plan.JoinMethod) plan.Node {
			sorted := &plan.Sort{Input: salesJoin(m), Cols: []string{"sales.c2"}, Desc: true}
			return project(sorted, "sales.c2", "hsales.c5")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _, _ := runPlanDeg(t, e, c.plan(plan.MergeJoin), nil, 0)
			if len(want) == 0 {
				t.Fatal("the merge-join plan returned no rows")
			}
			for _, deg := range []int{0, 2, 4} {
				rows, ex, _ := runPlanDeg(t, e, c.plan(plan.HashJoin), nil, deg)
				if c.ordered {
					if !sameRows(rows, want) {
						t.Errorf("degree %d: %d rows in order %v..., merge join %v...", deg, len(rows), rows[:min(3, len(rows))], want[:min(3, len(want))])
					}
				} else if got, exp := sortedRowStrings(rows), sortedRowStrings(want); !slices.Equal(got, exp) {
					t.Errorf("degree %d: %d rows, merge join %d; first %v vs %v", deg, len(got), len(exp), got[:min(3, len(got))], exp[:min(3, len(exp))])
				}
				hj := findHashJoin(t, ex.Root)
				if !slices.Equal(hj.keys.cols, c.cols) {
					t.Errorf("degree %d: build keeps columns %v, want %v", deg, hj.keys.cols, c.cols)
				}
				if deg > 1 && hj.joined != c.bare {
					t.Errorf("degree %d: workers join = %v, want %v", deg, hj.joined, c.bare)
				}
			}

			// The build's charge, read when the join opens its probe input.
			ctx := NewContext(e.pool)
			ctx.Mem = NewMemTracker(0)
			ex, err := Build(ctx, c.plan(plan.HashJoin), nil)
			if err != nil {
				t.Fatal(err)
			}
			hj := findHashJoin(t, ex.Root)
			spy := &buildSpy{Operator: hj.probe, mem: ctx.Mem}
			hj.probe = spy
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
			src, _, _ := runPlanDeg(t, e, c.build(), nil, 0)
			var charge int64
			for _, r := range src {
				charge += int64(len(c.cols))*valueMemSize + mapEntryOverhead
				for _, o := range c.cols {
					charge += int64(len(r[o].Str))
				}
			}
			kept := 0
			check := func(list []tuple.Row) {
				for _, r := range list {
					kept++
					if len(r) != len(c.cols) {
						t.Fatalf("a kept build row holds %d values, want %d", len(r), len(c.cols))
					}
				}
			}
			for _, list := range hj.table.ints {
				check(list)
			}
			for _, list := range hj.table.strs {
				check(list)
			}
			if kept != len(src) {
				t.Errorf("build kept %d rows, its input has %d", kept, len(src))
			}
			if hj.keys.kind != tuple.KindString {
				charge += int64(probeBits(len(hj.table.ints)) / 8)
			}
			if spy.used != charge {
				t.Errorf("build charged %d B for %d rows, want %d (%d columns kept)", spy.used, len(src), charge, len(c.cols))
			}
		})
	}
}

// TestHashBuildColsWideSchema: a build wider than 64 columns has no mask bits
// for its later columns, so it keeps every column; a narrower one keeps the
// demanded columns only.
func TestHashBuildColsWideSchema(t *testing.T) {
	for _, c := range []struct {
		need  uint64
		width int
		want  string
	}{
		{need: 1<<0 | 1<<3, width: 5, want: "[0 3]"},
		{need: tuple.AllColumns, width: 3, want: "[0 1 2]"},
		{need: 1 << 63, width: 64, want: "[63]"},
		{need: 1 << 1, width: 66, want: fmt.Sprint(seq(66))},
	} {
		if got := fmt.Sprint(buildCols(nil, c.need, c.width)); got != c.want {
			t.Errorf("buildCols(%#x, %d) = %s, want %s", c.need, c.width, got, c.want)
		}
	}
}

// seq is [0, n).
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
