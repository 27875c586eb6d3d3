package catalog

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

func newTestCatalog() *Catalog {
	d := storage.NewDiskManager(storage.IOModel{RandomRead: 4 * time.Millisecond, SeqRead: 100 * time.Microsecond})
	return New(storage.NewBufferPool(d, 512))
}

// fetchRow reads and decodes the row at rid through FetchRowAppend.
func fetchRow(tab *Table, rid storage.RID) (tuple.Row, error) {
	vals, _, err := tab.FetchRowAppend(nil, rid, tuple.AllColumns, nil)
	return tuple.Row(vals), err
}

func salesSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "shipdate", Kind: tuple.KindDate},
		tuple.Column{Name: "state", Kind: tuple.KindString},
	)
}

func salesRows(n int) []tuple.Row {
	states := []string{"CA", "WA", "OR", "NV"}
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{
			tuple.Int64(int64(i)),
			tuple.Date(int64(13000 + i/10)),
			tuple.Str(states[i%len(states)]),
		}
	}
	return rows
}

func TestCreateTableDuplicate(t *testing.T) {
	c := newTestCatalog()
	if _, err := c.CreateHeapTable("t", salesSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateHeapTable("T", salesSchema()); err == nil {
		t.Error("duplicate (case-insensitive) table created")
	}
	if _, err := c.CreateClusteredTable("c", salesSchema(), []string{"nope"}); err == nil {
		t.Error("clustered table with bad cluster column created")
	}
}

func TestTableLookupAndList(t *testing.T) {
	c := newTestCatalog()
	c.CreateHeapTable("zeta", salesSchema())
	c.CreateHeapTable("alpha", salesSchema())
	if _, ok := c.Table("ZETA"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	ts := c.Tables()
	if len(ts) != 2 || ts[0].Name != "alpha" || ts[1].Name != "zeta" {
		t.Errorf("Tables() = %v", ts)
	}
}

func testTableRoundTrip(t *testing.T, tab *Table) {
	t.Helper()
	rows := salesRows(1000)
	rids, err := tab.BulkLoad(rows)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1000 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	if tab.NumPages() <= 0 {
		t.Errorf("NumPages = %d", tab.NumPages())
	}
	// A fetch by RID returns the loaded row.
	for i := 0; i < 1000; i += 137 {
		row, err := fetchRow(tab, rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if row[0].Int != int64(i) {
			t.Errorf("row %d has id %d", i, row[0].Int)
		}
	}
	// Full scan sees every row exactly once, in page-grouped order.
	it, err := tab.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	seenPages := map[storage.PageID]bool{}
	var curPage = storage.InvalidPageID
	n := 0
	for it.Next() {
		rid := it.RID()
		if rid.Page != curPage {
			if seenPages[rid.Page] {
				t.Fatal("page revisited during scan")
			}
			seenPages[rid.Page] = true
			curPage = rid.Page
		}
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 1000 {
		t.Errorf("scan saw %d rows", n)
	}
	if int64(len(seenPages)) != tab.NumPages() {
		t.Errorf("scan touched %d pages, NumPages = %d", len(seenPages), tab.NumPages())
	}
}

func TestHeapTableRoundTrip(t *testing.T) {
	c := newTestCatalog()
	tab, err := c.CreateHeapTable("sales", salesSchema())
	if err != nil {
		t.Fatal(err)
	}
	testTableRoundTrip(t, tab)
}

func TestClusteredTableRoundTrip(t *testing.T) {
	c := newTestCatalog()
	tab, err := c.CreateClusteredTable("sales", salesSchema(), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	testTableRoundTrip(t, tab)
}

func TestInsertSingleRows(t *testing.T) {
	c := newTestCatalog()
	hp, _ := c.CreateHeapTable("h", salesSchema())
	cl, _ := c.CreateClusteredTable("c", salesSchema(), []string{"id"})
	for _, tab := range []*Table{hp, cl} {
		rid, err := tab.Insert(tuple.Row{tuple.Int64(1), tuple.Date(2), tuple.Str("CA")})
		if err != nil {
			t.Fatal(err)
		}
		row, err := fetchRow(tab, rid)
		if err != nil {
			t.Fatal(err)
		}
		if row[2].Str != "CA" {
			t.Errorf("%s: row = %v", tab.Name, row)
		}
	}
}

func TestCreateIndexAndSeek(t *testing.T) {
	c := newTestCatalog()
	tab, _ := c.CreateClusteredTable("sales", salesSchema(), []string{"id"})
	rows := salesRows(2000)
	if _, err := tab.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	ix, err := c.CreateIndex("ix_state", tab, []string{"state"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("ix_state", tab, []string{"state"}); err == nil {
		t.Error("duplicate index created")
	}
	if _, err := c.CreateIndex("bad", tab, []string{"missing"}); err == nil {
		t.Error("index on missing column created")
	}
	if got, ok := tab.IndexByName("IX_STATE"); !ok || got != ix {
		t.Error("IndexByName failed")
	}

	// Seek state='CA' and verify we get exactly the CA rows.
	pred := expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA")))
	ranges, _, ok := expr.IndexRanges(pred, ix.Cols)
	if !ok {
		t.Fatal("index unusable")
	}
	it, err := ix.SeekRange(ranges[0])
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.Next() {
		if it.Values()[0].Str != "CA" {
			t.Fatalf("seek returned state %v", it.Values()[0])
		}
		row, err := fetchRow(tab, it.RID())
		if err != nil {
			t.Fatal(err)
		}
		if row[2].Str != "CA" {
			t.Fatalf("RID resolves to non-CA row %v", row)
		}
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 500 { // 2000 rows, 4 states round-robin
		t.Errorf("seek found %d CA rows, want 500", n)
	}
}

func TestIndexRangeSeekOnDate(t *testing.T) {
	c := newTestCatalog()
	tab, _ := c.CreateClusteredTable("sales", salesSchema(), []string{"id"})
	tab.BulkLoad(salesRows(1000))
	ix, err := c.CreateIndex("ix_date", tab, []string{"shipdate"})
	if err != nil {
		t.Fatal(err)
	}
	// shipdate in [13010, 13020): 10 dates x 10 rows each -> 100 rows.
	pred := expr.And(
		expr.NewAtom("shipdate", expr.Ge, tuple.Date(13010)),
		expr.NewAtom("shipdate", expr.Lt, tuple.Date(13020)),
	)
	ranges, _, ok := expr.IndexRanges(pred, ix.Cols)
	if !ok {
		t.Fatal("unusable")
	}
	it, _ := ix.SeekRange(ranges[0])
	defer it.Close()
	n := 0
	for it.Next() {
		v := it.Values()[0]
		if v.Kind != tuple.KindDate {
			t.Fatalf("index value kind = %v, want DATE", v.Kind)
		}
		if v.Int < 13010 || v.Int >= 13020 {
			t.Fatalf("out-of-range date %d", v.Int)
		}
		n++
	}
	if n != 100 {
		t.Errorf("range seek found %d rows, want 100", n)
	}
}

func TestCompositeIndexSeek(t *testing.T) {
	c := newTestCatalog()
	tab, _ := c.CreateClusteredTable("sales", salesSchema(), []string{"id"})
	tab.BulkLoad(salesRows(1000))
	ix, err := c.CreateIndex("ix_date_state", tab, []string{"shipdate", "state"})
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.And(
		expr.NewAtom("shipdate", expr.Eq, tuple.Date(13005)),
		expr.NewAtom("state", expr.Eq, tuple.Str("WA")),
	)
	ranges, matched, ok := expr.IndexRanges(pred, ix.Cols)
	if !ok || len(matched) != 2 {
		t.Fatal("composite index unusable")
	}
	it, _ := ix.SeekRange(ranges[0])
	defer it.Close()
	n := 0
	for it.Next() {
		n++
	}
	// Rows 50..59 have date 13005; states cycle CA,WA,OR,NV -> WA appears
	// at ids 53, 57 within that band: rows i%4==1.
	want := 0
	for i := 50; i < 60; i++ {
		if i%4 == 1 {
			want++
		}
	}
	if n != want {
		t.Errorf("composite seek found %d, want %d", n, want)
	}
}

func TestIndexCovers(t *testing.T) {
	ix := &Index{Cols: []string{"shipdate", "state"}}
	if !ix.Covers([]string{"STATE"}) {
		t.Error("Covers(state) = false")
	}
	if ix.Covers([]string{"state", "id"}) {
		t.Error("Covers(state,id) = true")
	}
	if !ix.Covers(nil) {
		t.Error("Covers(nil) = false")
	}
}

func TestClusteredBulkLoadRequiresSorted(t *testing.T) {
	c := newTestCatalog()
	tab, _ := c.CreateClusteredTable("t", salesSchema(), []string{"id"})
	rows := []tuple.Row{
		{tuple.Int64(2), tuple.Date(1), tuple.Str("a")},
		{tuple.Int64(1), tuple.Date(1), tuple.Str("b")},
	}
	if _, err := tab.BulkLoad(rows); err == nil {
		t.Error("unsorted clustered bulk load succeeded")
	}
}

func TestScanRange(t *testing.T) {
	c := newTestCatalog()
	tab, _ := c.CreateClusteredTable("sales", salesSchema(), []string{"id"})
	tab.BulkLoad(salesRows(1000))
	pred := expr.And(
		expr.NewAtom("id", expr.Ge, tuple.Int64(100)),
		expr.NewAtom("id", expr.Lt, tuple.Int64(250)),
	)
	ranges, _, ok := expr.IndexRanges(pred, tab.ClusterCols)
	if !ok {
		t.Fatal("cluster range unusable")
	}
	it, err := tab.ScanRange(ranges[0])
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	prev := int64(-1)
	for it.Next() {
		id := it.Row()[0].Int
		if id < 100 || id >= 250 {
			t.Fatalf("out-of-range id %d", id)
		}
		if id <= prev {
			t.Fatal("range scan out of order")
		}
		prev = id
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 150 {
		t.Errorf("range scan returned %d rows, want 150", n)
	}
	if tab.ClusterHeight() < 1 {
		t.Errorf("ClusterHeight = %d", tab.ClusterHeight())
	}
	// Heap tables cannot range-scan by cluster key.
	hp, _ := c.CreateHeapTable("h", salesSchema())
	if _, err := hp.ScanRange(ranges[0]); err == nil {
		t.Error("heap ScanRange succeeded")
	}
	if hp.ClusterHeight() != 0 {
		t.Error("heap ClusterHeight nonzero")
	}
}

func TestIndexAccessors(t *testing.T) {
	c := newTestCatalog()
	tab, _ := c.CreateClusteredTable("sales", salesSchema(), []string{"id"})
	tab.BulkLoad(salesRows(1000))
	ix, err := c.CreateIndex("ix", tab, []string{"state"})
	if err != nil {
		t.Fatal(err)
	}
	if ix.LeafPages() <= 0 || ix.Height() < 1 {
		t.Errorf("LeafPages=%d Height=%d", ix.LeafPages(), ix.Height())
	}
	if got := tab.Indexes(); len(got) != 1 || got[0] != ix {
		t.Errorf("Indexes() = %v", got)
	}
	if c.Pool() == nil {
		t.Error("Pool() nil")
	}
}

func TestIndexOnHeapTable(t *testing.T) {
	c := newTestCatalog()
	tab, _ := c.CreateHeapTable("h", salesSchema())
	rng := rand.New(rand.NewSource(3))
	var rows []tuple.Row
	for i := 0; i < 500; i++ {
		rows = append(rows, tuple.Row{
			tuple.Int64(int64(rng.Intn(1 << 30))),
			tuple.Date(int64(13000 + i)),
			tuple.Str(fmt.Sprintf("S%02d", i%7)),
		})
	}
	tab.BulkLoad(rows)
	ix, err := c.CreateIndex("ix", tab, []string{"state"})
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("S03")))
	ranges, _, _ := expr.IndexRanges(pred, ix.Cols)
	it, _ := ix.SeekRange(ranges[0])
	defer it.Close()
	n := 0
	for it.Next() {
		row, err := fetchRow(tab, it.RID())
		if err != nil {
			t.Fatal(err)
		}
		if row[2].Str != "S03" {
			t.Fatal("wrong row fetched from heap")
		}
		n++
	}
	want := 0
	for i := 0; i < 500; i++ {
		if i%7 == 3 {
			want++
		}
	}
	if n != want {
		t.Errorf("found %d, want %d", n, want)
	}
}

// TestFilteredScanSurfacesCorruptCell: a cell whose string length prefix
// lies is corrupt whatever its other columns say. Even when the scan
// predicate would have rejected the row on its intact bytes, a
// late-materializing scan — or a fetch judged by the same predicate — must
// hand the cell to the decoder and fail with its error, never skip the row
// and finish clean.
func TestFilteredScanSurfacesCorruptCell(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		c := newTestCatalog()
		var tab *Table
		var err error
		if clustered {
			tab, err = c.CreateClusteredTable("s", salesSchema(), []string{"id"})
		} else {
			tab, err = c.CreateHeapTable("s", salesSchema())
		}
		if err != nil {
			t.Fatal(err)
		}
		rids, err := tab.BulkLoad(salesRows(1000))
		if err != nil {
			t.Fatal(err)
		}
		pred, err := expr.And(expr.NewAtom("id", expr.Lt, tuple.Int64(0))).Bind(tab.Schema)
		if err != nil {
			t.Fatal(err)
		}
		raw := expr.CompileRaw(pred, tab.Schema)
		if !raw.OK() {
			t.Fatal("predicate has no encoded form")
		}
		scan := func() (kept int, err error) {
			it, err := tab.ScanAll()
			if err != nil {
				return 0, err
			}
			defer it.Close()
			var b RowBatch
			for {
				if _, ok := it.NextPageFiltered(&b, raw.Eval); !ok {
					return kept, it.Err()
				}
				kept += b.Len()
			}
		}
		if kept, err := scan(); err != nil || kept != 0 {
			t.Fatalf("clustered=%v: clean scan kept %d rows, err %v; the predicate rejects every row", clustered, kept, err)
		}
		// A fetch judged by the same predicate decodes nothing of a row it
		// rejects, but a corrupt cell reaches the decoder and fails.
		fetch := func() (int, bool, error) {
			vals, kept, err := tab.FetchRowAppend(nil, rids[500], 0, keepFunc(raw.Eval))
			return len(vals), kept, err
		}
		if n, kept, err := fetch(); err != nil || kept || n != 0 {
			t.Fatalf("clustered=%v: clean fetch kept=%v with %d values, err %v; the predicate rejects it", clustered, kept, n, err)
		}

		// The state column is last and two bytes long, so its length prefix
		// is the four bytes before those — in a heap cell and in a clustered
		// leaf cell (whose value is the cell's suffix) alike.
		var file storage.FileID
		if clustered {
			file = tab.clustered.File()
		} else {
			file = tab.heapFile.FileID()
		}
		rid := rids[500]
		pp, err := c.pool.FetchPage(file, rid.Page)
		if err != nil {
			t.Fatal(err)
		}
		cell := pp.Page.Cell(rid.Slot)
		cell[len(cell)-6] = 200
		pp.Unpin(false)

		if kept, err := scan(); err == nil {
			t.Errorf("clustered=%v: scan over a corrupt cell finished clean (kept %d rows)", clustered, kept)
		}
		if n, kept, err := fetch(); err == nil {
			t.Errorf("clustered=%v: fetch of a corrupt cell finished clean (kept=%v, %d values)", clustered, kept, n)
		}
	}
}
