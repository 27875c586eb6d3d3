package pagefeedback

import (
	"fmt"
	"strings"
	"testing"

	"pagefeedback/internal/exec"
)

// exchangeArenaBytes is what one exchange arena charges the query's memory
// tracker: room for one and a half flushes of 1,024 rows, width values each,
// at 32 B per value (exec.ParallelScan's sizing).
func exchangeArenaBytes(width int) int64 { return int64((1024 + 512) * width * 32) }

// shippingArenaBytes sums, over the exchanges of a plan that ship rows, one
// arena of each exchange's row width. An exchange under a scalar aggregate,
// bare or running the probe of a hash join, folds in its workers and ships
// none; a pushed probe ships joined rows of both tables' widths.
func shippingArenaBytes(t *testing.T, eng *Engine, s exec.OperatorStats) int64 {
	t.Helper()
	width := func(label string) int {
		name, _, _ := strings.Cut(strings.TrimPrefix(label, "ParallelScan("), ")")
		tab, ok := eng.Catalog().Table(name)
		if !ok {
			t.Fatalf("no table %q behind %s", name, label)
		}
		return tab.Schema.NumColumns()
	}
	var walk func(s exec.OperatorStats, underAgg bool) int64
	walk = func(s exec.OperatorStats, underAgg bool) int64 {
		agg := strings.HasPrefix(s.Label, "Aggregate(")
		var sum int64
		for i, c := range s.Children {
			scan := strings.HasPrefix(c.Label, "ParallelScan(")
			switch {
			case scan && agg:
			case scan && s.Label == "HashJoin" && i == 1:
				if !underAgg {
					sum += exchangeArenaBytes(width(c.Label) + width(s.Children[0].Label))
				}
			case scan:
				sum += exchangeArenaBytes(width(c.Label))
			default:
				sum += walk(c, agg)
			}
		}
		return sum
	}
	return walk(s, false)
}

// identityDB holds t(id, k) with k = -id, clustered on id and with no index
// on k, so a predicate on k runs a full scan.
func identityDB(t *testing.T, n int) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PoolPages = 8192
	eng := New(cfg)
	schema := NewSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "k", Kind: KindInt})
	if _, err := eng.CreateClusteredTable("t", schema, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int64(int64(i)), Int64(int64(-i))}
	}
	if err := eng.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestParallelMemPeakBound: a worker makes and charges at most two arenas
// and reuses them once the consumer hands them back, so a parallel plan's
// memory peak exceeds the serial plan's by at most degree × 2 arenas per
// row-shipping exchange, reads the same on every run, and fits a budget of
// exactly that sum. The named case is the sort under a LIMIT whose peak read
// 1,120 B serially and 492,640 B at degree 2 while every flush made a fresh
// arena.
func TestParallelMemPeakBound(t *testing.T) {
	raiseProcs(t, 4)
	type memCase struct {
		name, sql string
		eng       *Engine
	}
	matrix := buildJoinDB(t, 12000)
	var cases []memCase
	for i, sq := range shapeQueries {
		cases = append(cases, memCase{fmt.Sprintf("shape%02d", i), sq.sql, matrix})
	}
	cases = append(cases, memCase{"sort-limit", "SELECT id, k FROM t WHERE k < -1400 ORDER BY id DESC LIMIT 5", identityDB(t, 8192)})

	const tracked = 1 << 40 // a budget that only turns the tracker on
	shipping := 0
	for _, c := range cases {
		run := func(degree int, budget int64) *Result {
			t.Helper()
			res, err := c.eng.Query(c.sql, &RunOptions{Parallelism: degree, MemBudget: budget})
			if err != nil {
				t.Fatalf("%s at degree %d, budget %d: %v", c.name, degree, budget, err)
			}
			if got := res.Stats.Runtime.Parallelism; got != degree {
				t.Fatalf("%s: ran at degree %d, want %d", c.name, got, degree)
			}
			return res
		}
		serial := run(0, tracked).Stats.Runtime.MemPeakBytes
		res := run(4, tracked)
		arenas := shippingArenaBytes(t, c.eng, res.Stats.Plan)
		if arenas == 0 {
			continue
		}
		shipping++
		for _, d := range []int{2, 4} {
			peak := run(d, tracked).Stats.Runtime.MemPeakBytes
			if bound := serial + int64(d)*2*arenas; peak > bound {
				t.Errorf("%s: degree %d peak %d B, want <= serial %d + %d x 2 arenas = %d", c.name, d, peak, serial, d, bound)
			}
		}
		first := res.Stats.Runtime.MemPeakBytes
		for i := 0; i < 10; i++ {
			if peak := run(4, tracked).Stats.Runtime.MemPeakBytes; peak != first {
				t.Errorf("%s: degree 4 peak %d B on repeat %d, %d B on the first run", c.name, peak, i, first)
			}
		}
		run(4, serial+4*2*arenas)
		if c.name == "sort-limit" {
			t.Logf("%s: serial peak %d B, degree 4 peak %d B", c.name, serial, first)
		}
	}
	t.Logf("%d of %d cases ran a row-shipping exchange", shipping, len(cases))
	if shipping < 4 {
		t.Errorf("only %d cases ran a row-shipping exchange; the matrix has lost its parallel shapes", shipping)
	}
}
