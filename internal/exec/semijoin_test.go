package exec

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// semiRows is the probe table size of the hash-join push-down tests.
const semiRows = 12000

// semiShape is one key layout of the push-down matrix: the probe (inner)
// table's columns, its join key for a key number, and the build (outer)
// table's key for the same number — equal values join.
type semiShape struct {
	name      string
	cols      []tuple.Column
	probeKey  func(k int64) tuple.Value
	buildKind tuple.Kind
	buildKey  func(k int64) tuple.Value
}

// semiKeyStr renders key number k as a VARCHAR key; every third one carries a
// NUL byte, which the order-preserving key encoding escapes and the value
// table must not.
func semiKeyStr(k int64) tuple.Value {
	if k%3 == 0 {
		return tuple.Str(fmt.Sprintf("k\x00%05d", k))
	}
	return tuple.Str(fmt.Sprintf("k%05d", k))
}

func semiShapes() []semiShape {
	col := func(name string, k tuple.Kind) tuple.Column { return tuple.Column{Name: name, Kind: k} }
	id, pad := col("id", tuple.KindInt), col("pad", tuple.KindString)
	return []semiShape{
		{"int", []tuple.Column{id, col("k", tuple.KindInt), pad},
			tuple.Int64, tuple.KindInt, tuple.Int64},
		// A DATE build key joins an INT probe key with the same payload.
		{"date-int", []tuple.Column{id, col("k", tuple.KindInt), pad},
			tuple.Int64, tuple.KindDate, tuple.Date},
		{"varchar", []tuple.Column{id, col("k", tuple.KindString), pad},
			semiKeyStr, tuple.KindString, semiKeyStr},
		// The key sits behind a string, so the probe walks a length prefix.
		{"varchar-middle", []tuple.Column{id, col("tag", tuple.KindString), col("k", tuple.KindInt), pad},
			tuple.Int64, tuple.KindInt, tuple.Int64},
	}
}

// semiTables loads one shape: a clustered probe table whose row i has key
// number i·7919 mod semiRows, and a build table of 440 rows whose key numbers
// spread past semiRows (so some never match), every tenth one twice.
func semiTables(t *testing.T, cat *catalog.Catalog, sh semiShape) (probe, build *catalog.Table) {
	t.Helper()
	schema := tuple.NewSchema(sh.cols...)
	padding := strings.Repeat("p", 40)
	rows := make([]tuple.Row, semiRows)
	for i := range rows {
		row := make(tuple.Row, len(sh.cols))
		for c, cdef := range sh.cols {
			switch cdef.Name {
			case "id":
				row[c] = tuple.Int64(int64(i))
			case "k":
				row[c] = sh.probeKey(int64(i*7919) % semiRows)
			case "tag":
				row[c] = tuple.Str(padding[:i%7])
			case "pad":
				row[c] = tuple.Str(padding[:20+i%20])
			}
		}
		rows[i] = row
	}
	probe, err := cat.CreateClusteredTable("p_"+sh.name, schema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}

	bschema := tuple.NewSchema(tuple.Column{Name: "oid", Kind: tuple.KindInt}, tuple.Column{Name: "k", Kind: sh.buildKind})
	var brows []tuple.Row
	for j := int64(0); j < 400; j++ {
		row := tuple.Row{tuple.Int64(j), sh.buildKey(j * 37 % (semiRows + semiRows/5))}
		brows = append(brows, row)
		if j%10 == 0 {
			brows = append(brows, row)
		}
	}
	build, err = cat.CreateHeapTable("b_"+sh.name, bschema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := build.BulkLoad(brows); err != nil {
		t.Fatal(err)
	}
	return probe, build
}

// semiJoinPlan is the hash join of build (filtered to oid < buildLimit) with
// probe (filtered to id < 3/4 of its rows) on k.
func semiJoinPlan(t *testing.T, probe, build *catalog.Table, buildLimit int64) *plan.Join {
	t.Helper()
	return &plan.Join{
		Method: plan.HashJoin,
		Outer: &plan.Scan{Tab: build, Pred: mustBind(t,
			expr.And(expr.NewAtom("oid", expr.Lt, tuple.Int64(buildLimit))), build.Schema)},
		Inner: &plan.Scan{Tab: probe, Pred: mustBind(t,
			expr.And(expr.NewAtom("id", expr.Lt, tuple.Int64(semiRows*3/4))), probe.Schema)},
		OuterCol: "k", InnerCol: "k",
		Schem: plan.JoinSchema(build.Name, build.Schema, probe.Name, probe.Schema),
	}
}

// survivingRows returns tab's rows that pass the scan predicate of node.
func survivingRows(t *testing.T, node *plan.Scan) []tuple.Row {
	t.Helper()
	it, err := node.Tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []tuple.Row
	for it.Next() {
		if node.Pred.Eval(it.Row()) {
			out = append(out, it.Row().Clone())
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// nestedLoopJoin is the reference result of a hash-join plan and the number
// of distinct probe rows with a match.
func nestedLoopJoin(t *testing.T, node *plan.Join) (rows []tuple.Row, matched int64) {
	t.Helper()
	outer, inner := node.Outer.(*plan.Scan), node.Inner.(*plan.Scan)
	ko, ki := outer.Tab.Schema.MustOrdinal(node.OuterCol), inner.Tab.Schema.MustOrdinal(node.InnerCol)
	builds := survivingRows(t, outer)
	for _, p := range survivingRows(t, inner) {
		hit := false
		for _, b := range builds {
			if b[ko].Compare(p[ki]) == 0 {
				rows = append(rows, append(b.Clone(), p...))
				hit = true
			}
		}
		if hit {
			matched++
		}
	}
	return rows, matched
}

// sampledPageRows counts the rows of tab on pages some sampled monitor of ex
// (DPSample or join bit-vector, live or not) has in its sample: the pages
// whose rejected rows a scan may decode.
func sampledPageRows(t *testing.T, ex *Execution, tab *catalog.Table) int64 {
	t.Helper()
	it, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var b catalog.RowBatch
	var n int64
	for it.NextPage(&b) {
		for _, m := range ex.scanMons {
			if (m.kind == monSampled || m.kind == monJoinFilter) && m.dps.InSample(b.PID) {
				n += int64(b.Len())
				break
			}
		}
	}
	return n
}

// semiRun is what one execution of a join plan leaves behind.
type semiRun struct {
	rows    []string
	dpc     []DPCResult
	touched int64
	decoded int64
	scanAct int64
	ex      *Execution
}

// runSemiJoin builds and runs node; pushed=false undoes the probe push-down
// before the run, giving the reference that decodes every predicate survivor.
func runSemiJoin(t *testing.T, pool *storage.BufferPool, node plan.Node, cfg *MonitorConfig, deg int, pushed bool) semiRun {
	t.Helper()
	ctx := NewContext(pool)
	ctx.Parallelism = deg
	ex, err := Build(ctx, node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hj, ok := unwrapOp(ex.Root).(*HashJoinOp)
	if !ok || hj.scan == nil {
		t.Fatalf("deg=%d: root is %T with no probe push-down", deg, unwrapOp(ex.Root))
	}
	if !pushed {
		hj.scan, hj.joined = nil, false
	}
	rows, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	return semiRun{
		rows: sortedRowStrings(rows), dpc: ex.DPCResults(),
		touched: ctx.RowsTouched(), decoded: ctx.RowsDecoded(),
		scanAct: findScan(hj.probe).Stats().ActRows, ex: ex,
	}
}

// TestHashJoinSemiJoinParity holds the hash-join probe push-down — the build
// table judged as a semi-join on the probe scan's page bytes — to a run
// without it, over {INT, DATE-vs-INT, VARCHAR, VARCHAR-middle} keys ×
// {serial, degree 2, 4} × {no monitor, bit-vector and DPSample monitors at
// f = 0.01 and 1}. Results must equal a nested-loop join; every DPCResult,
// RowsTouched, the scan's ActRows and the feedback bytes must equal the
// reference; and the scans may decode no more than the build rows, the
// matching probe rows and the rows of sampled pages.
func TestHashJoinSemiJoinParity(t *testing.T) {
	d := storage.NewDiskManager(storage.DefaultIOModel())
	pool := storage.NewBufferPool(d, 4096)
	cat := catalog.New(pool)

	for _, sh := range semiShapes() {
		probe, build := semiTables(t, cat, sh)
		node := semiJoinPlan(t, probe, build, 350)
		ref, matched := nestedLoopJoin(t, node)
		wantRows := sortedRowStrings(ref)
		builds := int64(len(survivingRows(t, node.Outer.(*plan.Scan))))
		if matched == 0 || matched == int64(semiRows*3/4) {
			t.Fatalf("%s: %d matching probe rows; the data must both match and miss", sh.name, matched)
		}

		requests := []DPCRequest{
			{Table: probe.Name, Join: true},
			{Table: probe.Name, Pred: expr.And(expr.NewAtom("id", expr.Ge, tuple.Int64(semiRows/4)))},
		}
		type monCase struct {
			name string
			cfg  *MonitorConfig
		}
		mons := []monCase{{"none", nil}}
		for _, f := range []float64{0.01, 1} {
			mons = append(mons, monCase{fmt.Sprintf("f%g", f),
				&MonitorConfig{Requests: requests, SampleFraction: f, Seed: 9}})
		}
		for _, mc := range mons {
			want := runSemiJoin(t, pool, node, mc.cfg, 0, false)
			if !reflect.DeepEqual(want.rows, wantRows) {
				t.Fatalf("%s/%s: reference run returned %d rows, nested loop %d", sh.name, mc.name, len(want.rows), len(wantRows))
			}
			for _, deg := range []int{0, 2, 4} {
				name := fmt.Sprintf("%s/%s/deg%d", sh.name, mc.name, deg)
				got := runSemiJoin(t, pool, node, mc.cfg, deg, true)
				if !reflect.DeepEqual(got.rows, wantRows) {
					t.Errorf("%s: %d rows, nested loop %d", name, len(got.rows), len(wantRows))
				}
				if !reflect.DeepEqual(got.dpc, want.dpc) {
					t.Errorf("%s: DPC results differ:\n got %+v\nwant %+v", name, got.dpc, want.dpc)
				}
				if g, w := feedbackBytes(got.dpc), feedbackBytes(want.dpc); g != w {
					t.Errorf("%s: feedback bytes differ:\n got %s\nwant %s", name, g, w)
				}
				if got.touched != want.touched {
					t.Errorf("%s: RowsTouched = %d, reference %d", name, got.touched, want.touched)
				}
				if got.scanAct != want.scanAct {
					t.Errorf("%s: probe scan ActRows = %d, reference %d", name, got.scanAct, want.scanAct)
				}
				limit := builds + matched + sampledPageRows(t, got.ex, probe)
				if got.decoded > limit || (mc.name == "none" && got.decoded != builds+matched) {
					t.Errorf("%s: RowsDecoded = %d; build rows %d, matching probe rows %d, bound %d",
						name, got.decoded, builds, matched, limit)
				}
			}
		}
	}
}

// TestHashJoinProbeSurfacesCorruptCell: a probe cell that is not one
// well-formed row is kept by the push-down, not judged by a key read from
// bad bytes, so the decoder still fails the query — here on a row whose key
// has no build match, which a pushed-down probe would otherwise skip.
func TestHashJoinProbeSurfacesCorruptCell(t *testing.T) {
	d := storage.NewDiskManager(storage.DefaultIOModel())
	pool := storage.NewBufferPool(d, 4096)
	cat := catalog.New(pool)
	sh := semiShapes()[0]
	probe, build := semiTables(t, cat, sh)
	node := semiJoinPlan(t, probe, build, 350)
	keys := map[int64]bool{}
	for _, b := range survivingRows(t, node.Outer.(*plan.Scan)) {
		keys[b[1].Int] = true
	}

	// Find a surviving probe row without a match on the first page and
	// overrun its pad's length prefix, in the pooled copy of the page.
	parts, err := probe.ScanPartitions(1)
	if err != nil {
		t.Fatal(err)
	}
	parts[0].Iter.Close()
	pp, err := pool.FetchPage(parts[0].File, parts[0].Pages[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for s := 0; s < pp.Page.NumSlots() && !corrupted; s++ {
		// A leaf cell is a 2-byte key length, the key, then the encoded row.
		leaf := pp.Page.Cell(storage.SlotID(s))
		cell := leaf[2+int(binary.LittleEndian.Uint16(leaf)):]
		row, err := tuple.Decode(probe.Schema, cell)
		if err != nil || keys[row[1].Int] || row[0].Int >= semiRows*3/4 {
			continue
		}
		cell[16] = 0xFF // the low byte of pad's length prefix: now past the cell's end
		corrupted = true
	}
	pp.Unpin(false)
	if !corrupted {
		t.Fatal("no unmatched probe row on the first page")
	}
	for _, deg := range []int{0, 2} {
		for _, cfg := range []*MonitorConfig{nil, {Requests: []DPCRequest{{Table: probe.Name, Join: true}}, SampleFraction: 0.01, Seed: 9}} {
			ctx := NewContext(pool)
			ctx.Parallelism = deg
			ex, err := Build(ctx, node, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Run(); err == nil || !strings.Contains(err.Error(), "tuple:") {
				t.Errorf("deg=%d monitored=%v: corrupt probe cell gave %v, want the decode error", deg, cfg != nil, err)
			}
			if n := pool.Pinned(); n != 0 {
				t.Errorf("deg=%d: %d pins leaked", deg, n)
			}
		}
	}
}

// probeFuzzSchema derives a schema from a compact descriptor: the low three
// bits give the column count (1–8), then two bits per column select INT,
// VARCHAR or DATE, so fuzzing explores row layouts as well as payloads.
func probeFuzzSchema(desc uint32) *tuple.Schema {
	cols := make([]tuple.Column, 1+desc&7)
	for i := range cols {
		k := tuple.KindInt
		switch (desc >> (3 + 2*uint(i))) & 3 {
		case 1:
			k = tuple.KindString
		case 2:
			k = tuple.KindDate
		}
		cols[i] = tuple.Column{Name: string(rune('a' + i)), Kind: k}
	}
	return tuple.NewSchema(cols...)
}

// FuzzProbeKey checks the push-down's in-place key read against the decoder,
// on any layout and any bytes: a cell the decoder accepts yields the decoded
// join key — so it matches a table holding that key and misses an empty one —
// and a cell it rejects (truncated, over-long, a length prefix past the end)
// is kept unexamined, matching even an empty table, so the decoder still
// fails the scan. The full table also holds up to 15 more INT and DATE keys,
// negative ones and ones congruent to the cell's key mod the bit vector's
// width among them: every key the table holds must match (the bit vector
// has no false negatives), and a key congruent to one it holds must not
// (the map, not the vector, decides).
func FuzzProbeKey(f *testing.F) {
	mixed := uint32(2) | 0<<3 | 1<<5 | 2<<7 // (a INT, b VARCHAR, c DATE)
	valid, err := tuple.Encode(nil, probeFuzzSchema(mixed), tuple.Row{tuple.Int64(-42), tuple.Str("x\x00y"), tuple.Date(19000)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed, valid, uint8(2), int64(7), uint8(15))                                                               // key behind a string
	f.Add(mixed, valid, uint8(0), int64(-1), uint8(9))                                                               // negative INT key
	f.Add(mixed, valid, uint8(1), int64(0), uint8(0))                                                                // VARCHAR key
	f.Add(mixed, valid[:len(valid)-1], uint8(0), int64(0), uint8(0))                                                 // truncated
	f.Add(mixed, append(valid, 0xAA), uint8(0), int64(0), uint8(0))                                                  // over-long
	f.Add(uint32(1)|1<<3|0<<5, []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), int64(0), uint8(0)) // bad prefix
	f.Add(uint32(0), make([]byte, 8), uint8(0), int64(1<<40), uint8(4))                                              // one INT column

	f.Fuzz(func(t *testing.T, desc uint32, cell []byte, ordSeed uint8, seed int64, extra uint8) {
		s := probeFuzzSchema(desc)
		ord := int(ordSeed) % s.NumColumns()
		empty, err := newJoinProbe(nil, &valueMap[[]tuple.Row]{}, s, ord, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		row, err := tuple.Decode(s, cell)
		if err != nil {
			if !empty.matchesCell(cell) {
				t.Fatalf("malformed cell %x (schema %s) was rejected by the probe, hiding the decode error %v", cell, s, err)
			}
			return
		}
		v := row[ord]
		n, str, _ := cellKey(s, cell, ord)
		if v.Kind == tuple.KindString && string(str) != v.Str || v.Kind != tuple.KindString && n != v.Int {
			t.Fatalf("key read in place = (%d, %q), decoded %s (schema %s, ord %d, cell %x)", n, str, v, s, ord, cell)
		}
		if empty.matchesCell(cell) {
			t.Fatalf("well-formed cell %x matched an empty table", cell)
		}

		table := &valueMap[[]tuple.Row]{}
		if err := table.store(nil, 0, v, []tuple.Row{row}); err != nil {
			t.Fatal(err)
		}
		// Extra keys: negative, congruent to the cell's key mod every
		// power-of-two width up to 2^20, and next to the seed, alternately
		// stored as INT and DATE.
		base := seed
		if v.Kind != tuple.KindString {
			base = v.Int
		}
		var held []int64
		for i := int64(0); i < int64(extra%16); i++ {
			k := [...]int64{-1 - seed&0xFFFF - i, base + (i+1)<<20, seed + i, base - (i+1)<<32}[i%4]
			kv := tuple.Int64(k)
			if i%2 == 1 {
				kv = tuple.Date(k)
			}
			if err := table.store(nil, 0, kv, []tuple.Row{row}); err != nil {
				t.Fatal(err)
			}
			held = append(held, k)
		}
		full, err := newJoinProbe(nil, table, s, ord, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !full.matchesCell(cell) || len(full.builds(row)) != 1 {
			t.Fatalf("cell %x missed a table holding its own key %s", cell, v)
		}
		if v.Kind == tuple.KindString {
			return
		}
		probeKey := func(k int64) bool {
			r := row.Clone()
			r[ord] = tuple.Value{Kind: v.Kind, Int: k}
			c, err := tuple.Encode(nil, s, r)
			if err != nil {
				t.Fatal(err)
			}
			return full.matchesCell(c)
		}
		for _, k := range held {
			if !probeKey(k) {
				t.Fatalf("key %d held by the table missed (schema %s, ord %d)", k, s, ord)
			}
		}
		if k := base + int64(full.bits.Bits()); table.ints[k] == nil && probeKey(k) {
			t.Fatalf("key %d, congruent to held key %d mod %d, matched a table without it", k, base, full.bits.Bits())
		}
	})
}

// TestHashJoinProbeBitsExact holds a hash join whose build keys collide mod
// the probe's bit-vector width to a nested-loop join, serially and at degree
// 2, with the probe pushed into the scan and not. The build keys are DATE
// multiples of the width around zero plus a few odd ones; the INT probe keys
// run well past the build range on both sides, so most set bits are shared
// by keys the table does not hold, and negative keys exercise the mask.
func TestHashJoinProbeBitsExact(t *testing.T) {
	d := storage.NewDiskManager(storage.DefaultIOModel())
	pool := storage.NewBufferPool(d, 4096)
	cat := catalog.New(pool)

	// DATE build keys join the INT probe keys by their payload.
	var brows []tuple.Row
	for j := int64(-20); j < 20; j++ {
		brows = append(brows, tuple.Row{tuple.Int64(j + 20), tuple.Date(j * 512)})
	}
	for _, k := range []int64{5, -5, 1005, -1005} {
		brows = append(brows, tuple.Row{tuple.Int64(int64(len(brows))), tuple.Date(k)})
	}
	bschema := tuple.NewSchema(tuple.Column{Name: "oid", Kind: tuple.KindInt}, tuple.Column{Name: "k", Kind: tuple.KindDate})
	build, err := cat.CreateHeapTable("b_collide", bschema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := build.BulkLoad(brows); err != nil {
		t.Fatal(err)
	}
	if w := probeBits(len(brows)); w != 512 {
		t.Fatalf("probe width for %d keys = %d; the build keys assume 512", len(brows), w)
	}

	pschema := tuple.NewSchema(tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "k", Kind: tuple.KindInt}, tuple.Column{Name: "pad", Kind: tuple.KindString})
	var prows []tuple.Row
	for i := int64(0); i < semiRows; i++ {
		// Keys from -30000 to +29995 in steps of 5, shuffled over the pages.
		k := (i*7919)%semiRows*5 - 30000
		prows = append(prows, tuple.Row{tuple.Int64(i), tuple.Int64(k), tuple.Str("pad")})
	}
	probe, err := cat.CreateClusteredTable("p_collide", pschema, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.BulkLoad(prows); err != nil {
		t.Fatal(err)
	}

	node := semiJoinPlan(t, probe, build, int64(len(brows)))
	ref, matched := nestedLoopJoin(t, node)
	if matched == 0 {
		t.Fatal("no probe row matches; the data must both match and miss")
	}
	want := sortedRowStrings(ref)
	for _, deg := range []int{0, 2} {
		for _, pushed := range []bool{true, false} {
			if got := runSemiJoin(t, pool, node, nil, deg, pushed); !reflect.DeepEqual(got.rows, want) {
				t.Errorf("deg=%d pushed=%v: %d rows, nested loop %d", deg, pushed, len(got.rows), len(want))
			}
		}
	}
}

// TestHashJoinProbeBitsCharged: a hash join charges its probe's bit vector —
// width/8 bytes, width from the build's distinct INT keys — on top of the
// build table, to the byte, and a VARCHAR key charges nothing more.
// TestHashJoinProbeBitsMemBudget holds a budget between the two to the
// engine's memory error.
func TestHashJoinProbeBitsCharged(t *testing.T) {
	d := storage.NewDiskManager(storage.DefaultIOModel())
	pool := storage.NewBufferPool(d, 4096)
	cat := catalog.New(pool)
	for _, sh := range semiShapes()[:3] {
		probe, build := semiTables(t, cat, sh)
		node := semiJoinPlan(t, probe, build, 350)
		var buildBytes int64
		keys := map[tuple.Value]bool{}
		for _, r := range survivingRows(t, node.Outer.(*plan.Scan)) {
			buildBytes += rowMemSize(r) + mapEntryOverhead
			keys[r[1]] = true
		}
		var vecBytes int64
		if sh.buildKind != tuple.KindString {
			vecBytes = int64(probeBits(len(keys)) / 8)
		}
		ctx := NewContext(pool)
		ctx.Mem = NewMemTracker(0)
		ex, err := Build(ctx, node, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ex.Run()
		if err != nil {
			t.Fatal(err)
		}
		var outBytes int64
		for _, r := range rows {
			outBytes += rowMemSize(r)
		}
		if got, want := ctx.Mem.Used(), buildBytes+vecBytes+outBytes; got != want {
			t.Errorf("%s: charged %d bytes, want build %d + vector %d + result %d", sh.name, got, buildBytes, vecBytes, outBytes)
		}
	}
}

// TestHashJoinProbeAllocs guards the push-down's point: a hash join over a
// 12k-row probe scan, whose rows carry a VARCHAR, allocates for the rows that
// match, not for every probe row — fewer than one allocation per ten probe
// rows for Build plus Run.
func TestHashJoinProbeAllocs(t *testing.T) {
	d := storage.NewDiskManager(storage.DefaultIOModel())
	pool := storage.NewBufferPool(d, 4096)
	cat := catalog.New(pool)
	probe, build := semiTables(t, cat, semiShapes()[0])
	node := semiJoinPlan(t, probe, build, 40)
	want, _ := nestedLoopJoin(t, node)
	run := func() {
		ex, err := Build(NewContext(pool), node, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ex.Run()
		if err != nil || len(rows) != len(want) {
			t.Fatalf("%d rows (want %d), err %v", len(rows), len(want), err)
		}
	}
	run() // warm the pool
	got := testing.AllocsPerRun(20, run)
	t.Logf("build+run allocations: %.0f for %d probe rows", got, semiRows)
	if got*10 >= semiRows {
		t.Errorf("hash join allocates %.0f times over a %d-row probe, want fewer than %d", got, semiRows, semiRows/10)
	}
}
