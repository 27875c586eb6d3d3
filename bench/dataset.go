package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"pagefeedback"
	"pagefeedback/internal/datagen"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/opt"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// fullRows is the dataset size every workload is measured at. Tests build a
// smaller one.
const fullRows = 120000

// buildDataset creates the three tables every workload shares: the paper's
// synthetic t and t1 (string padding, so scans decode) and the all-integer f
// (so unmonitored scans of it take the raw evaluator). Only the pool size
// differs between workloads.
func buildDataset(rows int, seed int64, poolPages int) (*pagefeedback.Engine, *datagen.Dataset, error) {
	cfg := pagefeedback.DefaultConfig()
	if poolPages > 0 {
		cfg.PoolPages = poolPages
	}
	eng := pagefeedback.New(cfg)
	ds, err := datagen.BuildSynthetic(eng, rows, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("build t, t1: %w", err)
	}
	if err := buildF(eng, rows, seed); err != nil {
		return nil, nil, fmt.Errorf("build f: %w", err)
	}
	return eng, ds, nil
}

// buildF loads f(k, v, w): k clustered, v a permutation of k whose values
// stay within rows/40 positions of home (like t.c4), w = k % 97; index on v.
func buildF(eng *pagefeedback.Engine, rows int, seed int64) error {
	schema := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "k", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "v", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "w", Kind: pagefeedback.KindInt},
	)
	if _, err := eng.CreateClusteredTable("f", schema, []string{"k"}); err != nil {
		return err
	}
	v := windowPerm(rows, rows/40, rand.New(rand.NewSource(seed+104729)))
	data := make([]pagefeedback.Row, rows)
	for i := range data {
		data[i] = pagefeedback.Row{
			pagefeedback.Int64(int64(i)),
			pagefeedback.Int64(int64(v[i])),
			pagefeedback.Int64(int64(i % 97)),
		}
	}
	if err := eng.Load("f", data); err != nil {
		return err
	}
	if _, err := eng.CreateIndex("ix_f_v", "f", "v"); err != nil {
		return err
	}
	return eng.Analyze("f")
}

// windowPerm returns a permutation of 0..n-1 in which element i's value stays
// within about window positions of i (ranks of i + U(0, window)).
func windowPerm(n, window int, rng *rand.Rand) []int {
	keys := make([]float64, n)
	idx := make([]int, n)
	for i := range keys {
		keys[i] = float64(i) + rng.Float64()*float64(window)
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]int, n)
	for rank, pos := range idx {
		out[pos] = rank
	}
	return out
}

// refTable is one table swept once, row by row, for the reference answers. It
// is dropped when set-up ends so the timed pass does not scan it in every GC.
type refTable struct {
	name   string
	schema *tuple.Schema
	rows   []tuple.Row
	pages  []storage.PageID
	npages int64
	// sorted[c] is true when column c is non-decreasing in sweep order, which
	// lets range atoms on it narrow the sweep by binary search.
	sorted []bool
}

// reference computes answers by plain sweeps: Table.ScanAll and
// Conjunction.Eval, sharing nothing with the plans under test.
type reference struct {
	tables map[string]*refTable
}

func newReference(eng *pagefeedback.Engine, names ...string) (*reference, error) {
	ref := &reference{tables: make(map[string]*refTable)}
	for _, name := range names {
		tab, ok := eng.Catalog().Table(name)
		if !ok {
			return nil, fmt.Errorf("reference: no table %s", name)
		}
		it, err := tab.ScanAll()
		if err != nil {
			return nil, err
		}
		rt := &refTable{name: name, schema: tab.Schema, npages: tab.NumPages()}
		rt.sorted = make([]bool, tab.Schema.NumColumns())
		for c := range rt.sorted {
			rt.sorted[c] = tab.Schema.Column(c).Kind == tuple.KindInt
		}
		for it.Next() {
			row := it.Row()
			if n := len(rt.rows); n > 0 {
				prev := rt.rows[n-1]
				for c, s := range rt.sorted {
					if s && row[c].Int < prev[c].Int {
						rt.sorted[c] = false
					}
				}
			}
			rt.rows = append(rt.rows, row)
			rt.pages = append(rt.pages, it.RID().Page)
		}
		it.Close()
		if err := it.Err(); err != nil {
			return nil, err
		}
		ref.tables[strings.ToLower(name)] = rt
	}
	return ref, nil
}

func (r *reference) table(name string) (*refTable, error) {
	rt, ok := r.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("reference: table %s was not swept", name)
	}
	return rt, nil
}

// span narrows the sweep to the row positions a range atom on a sorted column
// allows; every position outside [lo, hi) fails that atom.
func (rt *refTable) span(pred expr.Conjunction) (lo, hi int) {
	lo, hi = 0, len(rt.rows)
	for _, a := range pred.Atoms {
		c := a.Ordinal()
		if c < 0 || !rt.sorted[c] || a.Val.Kind != tuple.KindInt {
			continue
		}
		first := func(x int64) int { // first position with value >= x
			return sort.Search(len(rt.rows), func(i int) bool { return rt.rows[i][c].Int >= x })
		}
		var l, h int
		switch a.Op {
		case expr.Between:
			l, h = first(a.Val.Int), first(a.Val2.Int+1)
		case expr.Eq:
			l, h = first(a.Val.Int), first(a.Val.Int+1)
		case expr.Lt:
			l, h = 0, first(a.Val.Int)
		case expr.Le:
			l, h = 0, first(a.Val.Int+1)
		case expr.Ge:
			l, h = first(a.Val.Int), len(rt.rows)
		case expr.Gt:
			l, h = first(a.Val.Int+1), len(rt.rows)
		default:
			continue
		}
		if l > lo {
			lo = l
		}
		if h < hi {
			hi = h
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// each calls fn with the position of every row satisfying pred.
func (rt *refTable) each(pred expr.Conjunction, fn func(i int)) error {
	bound, err := pred.Bind(rt.schema)
	if err != nil {
		return err
	}
	lo, hi := rt.span(bound)
	for i := lo; i < hi; i++ {
		if bound.Eval(rt.rows[i]) {
			fn(i)
		}
	}
	return nil
}

// dpc is the exact DPC(table, pred): pages holding at least one qualifying row.
func (r *reference) dpc(table string, pred expr.Conjunction) (int64, error) {
	rt, err := r.table(table)
	if err != nil {
		return 0, err
	}
	var n int64
	last := storage.InvalidPageID
	seen := make(map[storage.PageID]struct{})
	err = rt.each(pred, func(i int) {
		if p := rt.pages[i]; p != last {
			last = p
			if _, dup := seen[p]; !dup {
				seen[p] = struct{}{}
				n++
			}
		}
	})
	return n, err
}

// answer is the reference outcome of one query: the result's row count, its
// order-insensitive content hash, and — for the one-row aggregate queries —
// the aggregate itself, which is all a timed op compares.
type answer struct {
	rows  int
	hash  uint64
	count int64
}

// rowHash hashes one result row; summing row hashes gives a multiset hash.
func rowHash(row []tuple.Value) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for _, v := range row {
		buf[0] = byte(v.Kind)
		x := uint64(v.Int)
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(x >> (8 * i))
		}
		_, _ = h.Write(buf[:]) // hash.Hash never fails
		_, _ = h.Write([]byte(v.Str))
	}
	return h.Sum64()
}

func hashRows(rows []tuple.Row) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += rowHash(r)
	}
	return sum
}

// joinSides resolves, for a join query, each side's table, own predicate and
// join-column ordinal.
type joinSide struct {
	rt   *refTable
	pred expr.Conjunction
	ord  int
}

func (r *reference) joinSides(q *opt.Query) (a, b joinSide, err error) {
	if a.rt, err = r.table(q.Table); err != nil {
		return
	}
	if b.rt, err = r.table(q.Table2); err != nil {
		return
	}
	a.pred, b.pred = q.Pred, q.Pred2
	a.ord, b.ord = a.rt.schema.MustOrdinal(q.JoinCol), b.rt.schema.MustOrdinal(q.JoinCol2)
	return
}

// answer evaluates q the slow way. It covers the query forms the workloads
// generate: COUNT over one table or an equi-join, grouped COUNT, and column
// projections with ORDER BY / LIMIT on a unique column.
func (r *reference) answer(q *opt.Query) (answer, error) {
	switch {
	case q.IsJoin():
		a, b, err := r.joinSides(q)
		if err != nil {
			return answer{}, err
		}
		other := make(map[int64]int64)
		if err := b.rt.each(b.pred, func(i int) { other[b.rt.rows[i][b.ord].Int]++ }); err != nil {
			return answer{}, err
		}
		var n int64
		if err := a.rt.each(a.pred, func(i int) { n += other[a.rt.rows[i][a.ord].Int] }); err != nil {
			return answer{}, err
		}
		return countAnswer(n), nil
	case q.IsGrouped():
		rt, err := r.table(q.Table)
		if err != nil {
			return answer{}, err
		}
		g := rt.schema.MustOrdinal(q.GroupBy)
		groups := make(map[tuple.Value]int64)
		if err := rt.each(q.Pred, func(i int) { groups[rt.rows[i][g]]++ }); err != nil {
			return answer{}, err
		}
		var out answer
		for k, n := range groups {
			out.rows++
			out.hash += rowHash([]tuple.Value{k, tuple.Int64(n)})
		}
		return out, nil
	case q.IsProjection():
		rt, err := r.table(q.Table)
		if err != nil {
			return answer{}, err
		}
		var hits []int
		if err := rt.each(q.Pred, func(i int) { hits = append(hits, i) }); err != nil {
			return answer{}, err
		}
		if q.OrderBy != "" {
			o := rt.schema.MustOrdinal(q.OrderBy)
			sort.Slice(hits, func(x, y int) bool {
				c := rt.rows[hits[x]][o].Compare(rt.rows[hits[y]][o])
				if q.OrderDesc {
					return c > 0
				}
				return c < 0
			})
		}
		if q.Limit > 0 && len(hits) > q.Limit {
			hits = hits[:q.Limit]
		}
		ords := make([]int, len(q.SelectCols))
		for i, c := range q.SelectCols {
			ords[i] = rt.schema.MustOrdinal(c)
		}
		var out answer
		row := make([]tuple.Value, len(ords))
		for _, i := range hits {
			for j, o := range ords {
				row[j] = rt.rows[i][o]
			}
			out.rows++
			out.hash += rowHash(row)
		}
		return out, nil
	default:
		rt, err := r.table(q.Table)
		if err != nil {
			return answer{}, err
		}
		var n int64
		if err := rt.each(q.Pred, func(int) { n++ }); err != nil {
			return answer{}, err
		}
		return countAnswer(n), nil
	}
}

func countAnswer(n int64) answer {
	return answer{rows: 1, count: n, hash: rowHash([]tuple.Value{tuple.Int64(n)})}
}

// joinDPC is the exact DPC(table, join predicate) of q: pages of the named
// side holding a row that joins a qualifying row of the other side — the
// pages an INL join with that side as the inner would fetch.
func (r *reference) joinDPC(q *opt.Query, table string) (int64, error) {
	a, b, err := r.joinSides(q)
	if err != nil {
		return 0, err
	}
	inner, outer := a, b
	if strings.EqualFold(table, q.Table2) {
		inner, outer = b, a
	}
	keys := make(map[int64]struct{})
	if err := outer.rt.each(outer.pred, func(i int) { keys[outer.rt.rows[i][outer.ord].Int] = struct{}{} }); err != nil {
		return 0, err
	}
	pages := make(map[storage.PageID]struct{})
	for i, row := range inner.rt.rows {
		if _, ok := keys[row[inner.ord].Int]; ok {
			pages[inner.rt.pages[i]] = struct{}{}
		}
	}
	return int64(len(pages)), nil
}
