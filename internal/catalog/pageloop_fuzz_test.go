package catalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pagefeedback/internal/btree"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// refCell is one entry of a row-at-a-time reference scan.
type refCell struct {
	rid  storage.RID
	key  []byte // clustering key (clustered tables only)
	cell []byte // encoded row
}

// pageLoopTable builds a random table for the page-loop parity check: three
// INT columns and a VARCHAR placed first, in the middle or last; ids are
// unique and ascending, so they are the clustering key. A heap table also
// gets deleted slots and pages emptied of every row.
func pageLoopTable(t *testing.T, rng *rand.Rand, clustered bool, strPos, nrows int) (*Table, *storage.BufferPool) {
	t.Helper()
	cols := []tuple.Column{{Name: "id", Kind: tuple.KindInt}, {Name: "a", Kind: tuple.KindInt}, {Name: "d", Kind: tuple.KindDate}}
	str := tuple.Column{Name: "s", Kind: tuple.KindString}
	pos := []int{0, 2, len(cols)}[strPos]
	cols = append(cols[:pos], append([]tuple.Column{str}, cols[pos:]...)...)
	schema := tuple.NewSchema(cols...)
	rows := make([]tuple.Row, nrows)
	for i := range rows {
		row := make(tuple.Row, len(cols))
		for c, col := range cols {
			switch {
			case col.Name == "id":
				row[c] = tuple.Int64(int64(3 * i))
			case col.Kind == tuple.KindString:
				row[c] = tuple.Str(strings.Repeat("x", rng.Intn(120)))
			case col.Kind == tuple.KindDate:
				row[c] = tuple.Date(rng.Int63n(20000))
			default:
				row[c] = tuple.Int64(rng.Int63n(1000) - 500)
			}
		}
		rows[i] = row
	}
	c := newTestCatalog()
	var tab *Table
	var err error
	if clustered {
		tab, err = c.CreateClusteredTable("p", schema, []string{"id"})
	} else {
		tab, err = c.CreateHeapTable("p", schema)
	}
	if err != nil {
		t.Fatal(err)
	}
	rids, err := tab.BulkLoad(rows)
	if err != nil {
		t.Fatal(err)
	}
	if clustered {
		return tab, c.pool
	}
	emptied := map[storage.PageID]bool{}
	for p := 0; p < tab.heapFile.NumPages(); p++ {
		if rng.Intn(4) == 0 {
			emptied[storage.PageID(p)] = true
		}
	}
	for _, rid := range rids {
		if emptied[rid.Page] || rng.Intn(5) == 0 {
			if err := tab.heapFile.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab, c.pool
}

// refScan drains a heap iterator or a clustered cursor row at a time. A heap
// scan keeps the rows on the pages keep accepts (nil: every page). A
// clustered cursor starts at lo, or covers nleaves leaves from leaf when
// nleaves > 0, and stops before hi (nil: no bound).
func refScan(t *testing.T, tab *Table, lo, hi []byte, leaf storage.PageID, nleaves int, keep func(storage.PageID) bool) []refCell {
	t.Helper()
	var out []refCell
	if tab.Kind == KindHeap {
		it := tab.heapFile.Scan()
		defer it.Close()
		for it.Next() {
			if keep == nil || keep(it.RID().Page) {
				out = append(out, refCell{rid: it.RID(), cell: append([]byte(nil), it.RowBytes()...)})
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	var cur *btree.Cursor
	var err error
	if nleaves > 0 {
		cur, err = tab.clustered.CursorAtLeaf(leaf, nleaves)
	} else {
		cur, err = tab.clustered.SeekGE(lo)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
		if hi != nil && string(cur.Key()) >= string(hi) {
			break
		}
		out = append(out, refCell{
			rid:  cur.RID(),
			key:  append([]byte(nil), cur.Key()...),
			cell: append([]byte(nil), cur.Value()...),
		})
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// recordingJudge is a CellJudge that logs every call and keeps a
// pseudo-random, content-determined subset of the cells.
type recordingJudge struct {
	salt    uint32
	entered []storage.PageID
	judged  [][]byte
	err     error
}

func (j *recordingJudge) EnterPage(pid storage.PageID) {
	if len(j.entered) > 0 && j.entered[len(j.entered)-1] == pid {
		j.err = fmt.Errorf("page %d entered twice", pid)
	}
	j.entered = append(j.entered, pid)
}

func (j *recordingJudge) Keep(cell []byte) bool {
	if len(j.entered) == 0 {
		j.err = fmt.Errorf("cell judged before any EnterPage")
	}
	j.judged = append(j.judged, append([]byte(nil), cell...))
	return j.keeps(cell)
}

// keeps is Keep's decision: an FNV-style hash of the salted cell bytes.
func (j *recordingJudge) keeps(cell []byte) bool {
	h := j.salt
	for _, b := range cell {
		h = (h ^ uint32(b)) * 16777619
	}
	return h%3 != 0
}

// checkPageLoop drains it page at a time through NextPageJudged (j nil:
// through NextPage) and compares every page with the reference entries.
func checkPageLoop(t *testing.T, what string, tab *Table, it *RowIter, ref []refCell, j *recordingJudge, skip uint64) {
	t.Helper()
	defer it.Close()
	var b RowBatch
	b.Skip = skip
	var pages []storage.PageID
	var totals []int
	var gotRIDs []storage.RID
	var gotRows []tuple.Row
	for {
		var total int
		var ok bool
		if j == nil {
			ok = it.NextPage(&b)
			total = b.Len()
		} else {
			total, ok = it.NextPageJudged(&b, j)
		}
		if !ok {
			break
		}
		pages = append(pages, b.PID)
		totals = append(totals, total)
		gotRIDs = append(gotRIDs, b.RIDs...)
		for _, r := range b.Rows {
			gotRows = append(gotRows, append(tuple.Row(nil), r...))
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}

	var wantPages []storage.PageID
	var wantTotals []int
	var wantCells [][]byte
	var wantRIDs []storage.RID
	var wantRows []tuple.Row
	for i, rc := range ref {
		if i == 0 || rc.rid.Page != ref[i-1].rid.Page {
			wantPages = append(wantPages, rc.rid.Page)
			wantTotals = append(wantTotals, 0)
		}
		wantTotals[len(wantTotals)-1]++
		wantCells = append(wantCells, rc.cell)
		if j != nil && !j.keeps(rc.cell) {
			continue
		}
		wantRIDs = append(wantRIDs, rc.rid)
		row, err := tuple.DecodeAppendCols(nil, tab.Schema, rc.cell, ^skip)
		if err != nil {
			t.Fatalf("%s: reference decode: %v", what, err)
		}
		wantRows = append(wantRows, row)
	}
	switch {
	case !reflect.DeepEqual(pages, wantPages):
		t.Fatalf("%s: pages %v, row-at-a-time %v", what, pages, wantPages)
	case !reflect.DeepEqual(totals, wantTotals):
		t.Fatalf("%s: per-page totals %v, row-at-a-time %v", what, totals, wantTotals)
	case !reflect.DeepEqual(gotRIDs, wantRIDs):
		t.Fatalf("%s: RIDs %v, row-at-a-time %v", what, gotRIDs, wantRIDs)
	case !reflect.DeepEqual(gotRows, wantRows):
		t.Fatalf("%s: decoded rows differ from row-at-a-time", what)
	}
	if j == nil {
		return
	}
	if j.err != nil {
		t.Fatalf("%s: %v", what, j.err)
	}
	if !reflect.DeepEqual(j.entered, wantPages) {
		t.Fatalf("%s: EnterPage calls %v, want one per returned page %v", what, j.entered, wantPages)
	}
	if !reflect.DeepEqual(j.judged, wantCells) {
		t.Fatalf("%s: Keep saw %d cells, want each of the %d in range once, in order", what, len(j.judged), len(wantCells))
	}
}

// FuzzPageLoop holds the one-loop page step to the row-at-a-time iterators
// (btree.Cursor.Next, heap.Iterator) on random clustered and heap tables:
// full scans, clustered range scans whose upper bound falls on a leaf's
// first slot, mid-leaf and past the end, and every ScanPartitions split.
// The pages, per-page totals, RIDs and decoded rows must be equal, and the
// judge must enter each returned page exactly once — never one no cell of
// which is below the bound — and see each cell in range exactly once.
func FuzzPageLoop(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(700))
	f.Add(int64(2), uint8(1), uint16(900))
	f.Add(int64(3), uint8(2), uint16(400))
	f.Add(int64(4), uint8(3), uint16(1000))
	f.Add(int64(5), uint8(4), uint16(0))
	f.Add(int64(6), uint8(5), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, layout uint8, nrows uint16) {
		rng := rand.New(rand.NewSource(seed))
		clustered := layout&1 == 1
		strPos := int(layout>>1) % 3
		tab, pool := pageLoopTable(t, rng, clustered, strPos, int(nrows)%1200)
		skip := uint64(rng.Intn(1 << tab.Schema.NumColumns()))
		judge := func() *recordingJudge { return &recordingJudge{salt: rng.Uint32()} }

		full := refScan(t, tab, nil, nil, 0, 0, nil)
		for _, j := range []*recordingJudge{nil, judge()} {
			it, err := tab.ScanAll()
			if err != nil {
				t.Fatal(err)
			}
			checkPageLoop(t, "full scan", tab, it, full, j, skip)
		}

		if clustered && len(full) > 0 {
			// Upper bounds on every leaf's first slot and mid-leaf, and
			// past the last key.
			var his [][]byte
			for first := 0; first < len(full); {
				end := first + 1
				for end < len(full) && full[end].rid.Page == full[first].rid.Page {
					end++
				}
				his = append(his, full[first].key, full[(first+end)/2].key)
				first = end
			}
			his = append(his, append(append([]byte(nil), full[len(full)-1].key...), 0xFF))
			for _, hi := range his {
				var lo []byte
				if rng.Intn(2) == 0 {
					lo = full[rng.Intn(len(full))].key
				}
				it, err := tab.ScanRange(expr.KeyRange{Lo: lo, Hi: hi})
				if err != nil {
					t.Fatal(err)
				}
				checkPageLoop(t, fmt.Sprintf("range [%x, %x)", lo, hi), tab, it, refScan(t, tab, lo, hi, 0, 0, nil), judge(), skip)
			}
		}

		for n := 1; n <= int(tab.NumPages())+1; n++ {
			parts, err := tab.ScanPartitions(n)
			if err != nil {
				t.Fatal(err)
			}
			for i, part := range parts {
				var ref []refCell
				if clustered {
					ref = refScan(t, tab, nil, nil, part.Pages[0], len(part.Pages), nil)
				} else {
					lo, hi := part.Pages[0], part.Pages[len(part.Pages)-1]
					ref = refScan(t, tab, nil, nil, 0, 0, func(p storage.PageID) bool { return p >= lo && p <= hi })
				}
				checkPageLoop(t, fmt.Sprintf("partition %d of %d", i, n), tab, part.Iter, ref, judge(), skip)
			}
		}
		if pinned := pool.Pinned(); pinned != 0 {
			t.Fatalf("%d pages still pinned after every scan closed", pinned)
		}
	})
}

// panicJudge panics on the first cell it judges.
type panicJudge struct{}

func (panicJudge) EnterPage(storage.PageID) {}
func (panicJudge) Keep([]byte) bool         { panic("judge failed") }

// TestPageLoopReleasesPinOnKeepPanic: a panic in the judge unwinds out of
// the page step. A heap page's pin is released on the way out; a clustered
// leaf stays the cursor's until Close. Either way nothing is left pinned.
func TestPageLoopReleasesPinOnKeepPanic(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		tab, pool := pageLoopTable(t, rand.New(rand.NewSource(1)), clustered, 1, 300)
		it, err := tab.ScanAll()
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("clustered=%v: the judge's panic was swallowed", clustered)
				}
			}()
			var b RowBatch
			it.NextPageJudged(&b, panicJudge{})
		}()
		it.Close()
		if pinned := pool.Pinned(); pinned != 0 {
			t.Errorf("clustered=%v: %d pages pinned after a judge panic and Close", clustered, pinned)
		}
	}
}
