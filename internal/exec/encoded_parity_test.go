package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// refScan is the full-decode reference the encoded-first page visit is held
// to: a serial scan that decodes every row of every page, judges the decoded
// row with the generic evaluator, and shows monitors the whole page — the
// evaluate-and-observe loop scans ran before they worked on encoded cells. It
// is kept here, outside the production tree, so TestEncodedScanParity always
// compares against an implementation that shares nothing with pageVisit but
// the monitors themselves.
type refScan struct {
	ctx      *Context
	tab      *catalog.Table
	pred     expr.Conjunction
	krange   *expr.KeyRange
	monitors []*scanMonitor
	stats    OpStats
}

// refScan is a monitoredScan so the builder's own attachScanMonitors plants
// its monitors; it is drained by run, not through the operator protocol.
func (r *refScan) attach(m *scanMonitor)         { r.monitors = append(r.monitors, m) }
func (r *refScan) setDemand(uint64)              {}
func (r *refScan) Table() *catalog.Table         { return r.tab }
func (r *refScan) Stats() *OpStats               { return &r.stats }
func (r *refScan) Schema() *tuple.Schema         { return r.tab.Schema }
func (r *refScan) Open() error                   { return nil }
func (r *refScan) Close() error                  { return nil }
func (r *refScan) NextBatch(*Batch) (int, error) { panic("refScan is drained by run") }

// run drains the scan and returns the rows that pass, cloned.
func (r *refScan) run(t *testing.T) []tuple.Row {
	t.Helper()
	var it *catalog.RowIter
	var err error
	if r.krange != nil {
		it, err = r.tab.ScanRange(*r.krange)
	} else {
		it, err = r.tab.ScanAll()
	}
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var (
		batch  catalog.RowBatch
		hist   = make([]int, len(r.pred.Atoms))
		passed int
		out    []tuple.Row
	)
	for it.NextPage(&batch) {
		r.ctx.touch(int64(batch.Len()))
		clear(hist)
		passed = 0
		for _, row := range batch.Rows {
			if fi := r.pred.FirstFail(row); fi != -1 {
				hist[fi]++
				continue
			}
			passed++
			out = append(out, row.Clone())
		}
		for _, m := range r.monitors {
			// Sampled monitors judge the decoded rows here, never the cells.
			if m.enterPage(batch.PID) {
				observeRows(m, batch.Rows)
			}
			m.safeEndPage(batch.PID, passed, hist)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	for _, m := range r.monitors {
		m.safeFinish()
	}
	return out
}

// observeRows is the decoded form of scanMonitor.judgeCell, behind the
// monitor's guard, for every row of a page in a sampled monitor's sample:
// the reference's monitors see rows, the scans' monitors see cells.
func observeRows(m *scanMonitor, rows []tuple.Row) {
	if m.disabled {
		return
	}
	defer m.catch()
	for _, row := range rows {
		if m.kind == monSampled {
			m.note(m.pred.Eval(row))
		} else {
			m.note(m.filter.MayContain(row[m.joinColOrd]))
		}
	}
}

// parityTable is one table shape of the parity matrix plus the predicate
// pieces the test composes scan predicates and DPC requests from.
type parityTable struct {
	tab *catalog.Table
	// atoms of the full-scan predicate, in order; the first is also a
	// prefix request, the last (alone) a non-prefix one.
	atoms []expr.Atom
}

const parityRows = 16000

// parityTables builds, for one schema shape, a heap and a clustered table
// with the same rows: id ascending, k a multiplicative scramble of id, and a
// short cyclic tag / a long pad where the shape has VARCHAR columns.
func parityTables(t *testing.T, cat *catalog.Catalog, shape string) (heap, clustered parityTable) {
	t.Helper()
	col := func(name string, k tuple.Kind) tuple.Column { return tuple.Column{Name: name, Kind: k} }
	id, k, day := col("id", tuple.KindInt), col("k", tuple.KindInt), col("day", tuple.KindDate)
	tag, pad := col("tag", tuple.KindString), col("pad", tuple.KindString)
	var cols []tuple.Column
	switch shape {
	case "int-only":
		cols = []tuple.Column{id, k, day}
	case "varchar-last":
		cols = []tuple.Column{id, k, day, pad}
	case "varchar-middle":
		cols = []tuple.Column{id, tag, k, pad, day}
	}
	schema := tuple.NewSchema(cols...)
	tags := []string{"ant", "bee", "cat", "dog", "eel", "fox", "gnu"}
	padding := strings.Repeat("p", 40)
	rows := make([]tuple.Row, parityRows)
	for i := range rows {
		row := make(tuple.Row, len(cols))
		for c, cdef := range cols {
			switch cdef.Name {
			case "id":
				row[c] = tuple.Int64(int64(i))
			case "k":
				row[c] = tuple.Int64(int64(i*7919) % parityRows)
			case "day":
				row[c] = tuple.Date(int64(13000 + i%365))
			case "tag":
				row[c] = tuple.Str(tags[(i/3)%len(tags)])
			case "pad":
				row[c] = tuple.Str(padding[:20+i%20])
			}
		}
		rows[i] = row
	}
	atoms := []expr.Atom{
		expr.NewAtom("day", expr.Ge, tuple.Date(13100)),
		expr.NewAtom("k", expr.Lt, tuple.Int64(parityRows/4)),
	}
	if shape == "varchar-middle" {
		// A string atom in front of an int atom that sits behind it on the
		// page, then one behind two length prefixes.
		atoms = []expr.Atom{
			expr.NewAtom("tag", expr.Ge, tuple.Str("cat")),
			expr.NewAtom("k", expr.Lt, tuple.Int64(parityRows/3)),
			expr.NewIn("day", tuple.Date(13010), tuple.Date(13011), tuple.Date(13200), tuple.Date(13201), tuple.Date(13300)),
		}
	}
	h, err := cat.CreateHeapTable("h_"+shape, schema)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cat.CreateClusteredTable("c_"+shape, schema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*catalog.Table{h, c} {
		if _, err := tab.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
	}
	return parityTable{tab: h, atoms: atoms}, parityTable{tab: c, atoms: atoms}
}

// feedbackBytes renders what the results would leave in the feedback cache
// — the engine's export is a pure function of this sequence — so a parity
// failure also shows as a byte diff, the way the engine-level suites report.
func feedbackBytes(results []DPCResult) string {
	fc := core.NewFeedbackCache()
	var b strings.Builder
	for _, r := range results {
		if r.Mechanism == MechUnsatisfiable || r.Degraded || r.Request.Join {
			fmt.Fprintf(&b, "skip %s %s degraded=%v\n", r.Request, r.Mechanism, r.Degraded)
			continue
		}
		fc.Store(core.FeedbackEntry{
			Table: r.Request.Table, Pred: r.Request.Pred,
			Cardinality: r.Cardinality, DPC: r.DPC, Mechanism: r.Mechanism, Exact: r.Exact,
		})
	}
	for _, e := range fc.Entries() {
		fmt.Fprintf(&b, "%+v\n", e)
	}
	return b.String()
}

// TestEncodedScanParity holds every scan shape that runs through pageVisit
// to the full-decode reference: {heap, clustered full scan, clustered range}
// × {serial, degree 2, 4} × sample fraction {0.01, 0.5, 1.0} × {INT-only,
// VARCHAR-last, VARCHAR-middle}.
// Rows, every DPCResult (exact prefix, DPSample, and a hand-attached join
// bit-vector monitor), RowsTouched and the feedback bytes
// must be identical. The reference shows sampled monitors decoded rows; the
// scans under test judge cells, and decode exactly the predicate's
// survivors, at the table's full width.
func TestEncodedScanParity(t *testing.T) {
	d := storage.NewDiskManager(storage.DefaultIOModel())
	pool := storage.NewBufferPool(d, 4096)
	cat := catalog.New(pool)

	for _, shape := range []string{"int-only", "varchar-last", "varchar-middle"} {
		heapT, clusT := parityTables(t, cat, shape)
		type scanCase struct {
			name  string
			pt    parityTable
			rng   bool
			atoms []expr.Atom
		}
		rangeAtoms := append([]expr.Atom{expr.NewBetween("id", tuple.Int64(500), tuple.Int64(6499))}, clusT.atoms...)
		cases := []scanCase{
			{"heap", heapT, false, heapT.atoms},
			{"clustered", clusT, false, clusT.atoms},
			{"range", clusT, true, rangeAtoms},
		}
		for _, sc := range cases {
			tab := sc.pt.tab
			pred := mustBind(t, expr.And(sc.atoms...), tab.Schema)
			node := &plan.Scan{Tab: tab, Pred: pred}
			if sc.rng {
				ranges, _, ok := expr.IndexRanges(pred, []string{"id"})
				if !ok {
					t.Fatal("range extraction failed")
				}
				node.ClusterRange = &ranges[0]
			}
			last := sc.atoms[len(sc.atoms)-1]
			requests := []DPCRequest{
				{Table: tab.Name, Pred: expr.And(sc.atoms...)},                                                  // the whole predicate: prefix
				{Table: tab.Name, Pred: expr.And(sc.atoms[0])},                                                  // proper prefix
				{Table: tab.Name, Pred: expr.And(last)},                                                         // non-prefix: DPSample
				{Table: tab.Name, Pred: expr.And(expr.NewAtom("id", expr.Ge, tuple.Int64(parityRows/2)), last)}, // non-prefix, two atoms
			}
			for _, f := range []float64{0.01, 0.5, 1.0} {
				cfg := func() *MonitorConfig {
					return &MonitorConfig{Requests: requests, SampleFraction: f, Seed: 5}
				}
				// A join bit-vector monitor, as a hash join's build side
				// would leave it: filter complete before the scan starts.
				joinMon := func() *scanMonitor {
					bv := core.NewBitVectorFilter(1 << 14)
					for v := int64(0); v < parityRows; v += 37 {
						bv.Add(tuple.Int64(v))
					}
					return &scanMonitor{
						req: DPCRequest{Table: tab.Name, Join: true}, kind: monJoinFilter,
						filter: bv, joinColOrd: tab.Schema.MustOrdinal("k"),
						dps: core.NewDPSample(f, 99),
					}
				}

				refCtx := NewContext(pool)
				refEx := &Execution{Ctx: refCtx, cfg: cfg(), satisfied: map[int]bool{}}
				ref := &refScan{ctx: refCtx, tab: tab, pred: pred, krange: node.ClusterRange}
				refEx.attachScanMonitors(ref, node)
				refJoin := joinMon()
				refJoin.host = ref.Stats()
				ref.attach(refJoin)
				wantRows := sortedRowStrings(ref.run(t))
				wantDPC := append(refEx.DPCResults(), refJoin.result())
				wantBytes := feedbackBytes(wantDPC)

				for _, deg := range []int{0, 2, 4} {
					name := fmt.Sprintf("%s/%s/f%g/deg%d", shape, sc.name, f, deg)
					ctx := NewContext(pool)
					ctx.Parallelism = deg
					ex, err := Build(ctx, node, cfg())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					scan := findScan(ex.Root)
					jm := joinMon()
					jm.host = scan.Stats()
					scan.attach(jm)
					rows, err := ex.Run()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := sortedRowStrings(rows); !reflect.DeepEqual(got, wantRows) {
						t.Errorf("%s: rows differ: got %d, reference %d", name, len(got), len(wantRows))
					}
					var gotDPC []DPCResult
					for _, r := range ex.DPCResults() {
						if r.Mechanism != MechUnsatisfiable {
							gotDPC = append(gotDPC, r)
						}
					}
					gotDPC = append(gotDPC, jm.result())
					if !reflect.DeepEqual(gotDPC, wantDPC) {
						t.Errorf("%s: DPC results differ:\n got %+v\nwant %+v", name, gotDPC, wantDPC)
					}
					if got := feedbackBytes(gotDPC); got != wantBytes {
						t.Errorf("%s: feedback bytes differ:\n got %s\nwant %s", name, got, wantBytes)
					}
					if got, want := ctx.RowsTouched(), refCtx.RowsTouched(); got != want {
						t.Errorf("%s: RowsTouched = %d, reference %d", name, got, want)
					}
					if dec := ctx.RowsDecoded(); dec != int64(len(rows)) {
						t.Errorf("%s: RowsDecoded = %d, want the %d survivors (%d touched)", name, dec, len(rows), ctx.RowsTouched())
					}
					if vals, want := ctx.ValuesDecoded(), ctx.RowsDecoded()*int64(tab.Schema.NumColumns()); vals != want {
						t.Errorf("%s: ValuesDecoded = %d, want %d (every column of %d rows)", name, vals, want, ctx.RowsDecoded())
					}
				}
			}
		}
	}
}

// TestCrossKindMonitorRequestUnsatisfiable: an explicit monitor request that
// compares an INT column with a string constant cannot bind, so it reports
// unsatisfiable with the bind error as its reason — never judged on decoded
// rows — and the query's rows and its other monitors' results are exactly
// those of the same query without it.
func TestCrossKindMonitorRequestUnsatisfiable(t *testing.T) {
	d := storage.NewDiskManager(storage.DefaultIOModel())
	cat := catalog.New(storage.NewBufferPool(d, 4096))
	heapT, _ := parityTables(t, cat, "int-only")
	tab := heapT.tab
	node := &plan.Scan{Tab: tab, Pred: mustBind(t, expr.And(heapT.atoms...), tab.Schema)}
	cross := DPCRequest{Table: tab.Name, Pred: expr.And(
		expr.NewAtom("id", expr.Lt, tuple.Int64(0)), expr.NewAtom("k", expr.Eq, tuple.Str("x")))}
	var reason string
	if _, err := cross.Pred.Bind(tab.Schema); err != nil {
		reason = err.Error()
	} else {
		t.Error("a string constant bound to an INT column")
	}
	others := []DPCRequest{
		{Table: tab.Name, Pred: expr.And(heapT.atoms[0])},                                                        // prefix
		{Table: tab.Name, Pred: expr.And(expr.NewAtom("id", expr.Ge, tuple.Int64(parityRows/2)))},                // DPSample
		{Table: tab.Name, Pred: expr.And(expr.NewAtom("k", expr.Lt, tuple.Int64(parityRows/8)), heapT.atoms[0])}, // DPSample
	}
	for _, deg := range []int{0, 2} {
		run := func(reqs []DPCRequest) ([]string, []DPCResult) {
			ctx := NewContext(cat.Pool())
			ctx.Parallelism = deg
			ex, err := Build(ctx, node, &MonitorConfig{Requests: reqs, SampleFraction: 0.5, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			rows, err := ex.Run()
			if err != nil {
				t.Fatal(err)
			}
			return sortedRowStrings(rows), ex.DPCResults()
		}
		wantRows, wantDPC := run(others)
		gotRows, gotDPC := run([]DPCRequest{others[0], cross, others[1], others[2]})
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Errorf("deg=%d: rows differ: %d with the cross-kind request, %d without", deg, len(gotRows), len(wantRows))
		}
		var unsat, rest []DPCResult
		for _, r := range gotDPC {
			if r.Mechanism == MechUnsatisfiable {
				unsat = append(unsat, r)
			} else {
				rest = append(rest, r)
			}
		}
		if len(unsat) != 1 || unsat[0].Request.String() != cross.String() || unsat[0].Reason != reason ||
			reason == "" || unsat[0].OpID != -1 || unsat[0].DPC != 0 || unsat[0].Degraded {
			t.Errorf("deg=%d: cross-kind request = %+v, want unsatisfiable with reason %q", deg, unsat, reason)
		}
		if !reflect.DeepEqual(rest, wantDPC) {
			t.Errorf("deg=%d: other DPC results differ:\n got %+v\nwant %+v", deg, rest, wantDPC)
		}
	}
}
