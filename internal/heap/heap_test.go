package heap

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"pagefeedback/internal/storage"
)

func newTestHeap(t *testing.T) *File {
	t.Helper()
	d := storage.NewDiskManager(storage.IOModel{RandomRead: 4 * time.Millisecond, SeqRead: 100 * time.Microsecond})
	bp := storage.NewBufferPool(d, 64)
	f, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// rowAt reads a copy of the row at rid through View.
func rowAt(f *File, rid storage.RID) ([]byte, error) {
	var out []byte
	err := f.View(rid, func(cell []byte) error {
		out = append([]byte(nil), cell...)
		return nil
	})
	return out, err
}

func TestInsertGet(t *testing.T) {
	f := newTestHeap(t)
	rid, err := f.Insert([]byte("row one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rowAt(f, rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "row one" {
		t.Errorf("View = %q", got)
	}
	if f.NumRows() != 1 {
		t.Errorf("NumRows = %d", f.NumRows())
	}
}

func TestInsertSpillsToNewPages(t *testing.T) {
	f := newTestHeap(t)
	row := make([]byte, 100)
	const n = 1000
	rids := make([]storage.RID, n)
	for i := 0; i < n; i++ {
		copy(row, fmt.Sprintf("row-%04d", i))
		rid, err := f.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	// ~78 rows per 8KB page -> ~13 pages.
	if f.NumPages() < 10 || f.NumPages() > 16 {
		t.Errorf("NumPages = %d, want ~13", f.NumPages())
	}
	// RIDs are assigned in nondecreasing page order (append-only).
	for i := 1; i < n; i++ {
		if rids[i].Page < rids[i-1].Page {
			t.Fatal("RID pages went backwards")
		}
	}
	for i := 0; i < n; i += 101 {
		got, err := rowAt(f, rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("row-%04d", i); string(got[:len(want)]) != want {
			t.Errorf("row %d = %q", i, got[:len(want)])
		}
	}
}

func TestGetErrors(t *testing.T) {
	f := newTestHeap(t)
	rid, _ := f.Insert([]byte("x"))
	if _, err := rowAt(f, storage.RID{Page: rid.Page, Slot: 99}); err == nil {
		t.Error("View of missing slot succeeded")
	}
	if _, err := rowAt(f, storage.RID{Page: 99, Slot: 0}); err == nil {
		t.Error("View of missing page succeeded")
	}
}

func TestDelete(t *testing.T) {
	f := newTestHeap(t)
	rid, _ := f.Insert([]byte("gone"))
	f.Insert([]byte("stays"))
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := rowAt(f, rid); err == nil {
		t.Error("View of deleted row succeeded")
	}
	if err := f.Delete(rid); err == nil {
		t.Error("double delete succeeded")
	}
	if f.NumRows() != 1 {
		t.Errorf("NumRows = %d", f.NumRows())
	}
}

func TestScanGroupedPageAccess(t *testing.T) {
	f := newTestHeap(t)
	row := make([]byte, 200)
	const n = 300
	for i := 0; i < n; i++ {
		copy(row, fmt.Sprintf("%05d", i))
		f.Insert(row)
	}
	it := f.Scan()
	defer it.Close()
	count := 0
	seenPages := map[storage.PageID]bool{}
	var cur storage.PageID = storage.InvalidPageID
	for it.Next() {
		rid := it.RID()
		if rid.Page != cur {
			// Grouped page access: each page is entered exactly once.
			if seenPages[rid.Page] {
				t.Fatalf("page %d revisited", rid.Page)
			}
			seenPages[rid.Page] = true
			cur = rid.Page
		}
		if want := fmt.Sprintf("%05d", count); string(it.RowBytes()[:5]) != want {
			t.Fatalf("row %d = %q", count, it.RowBytes()[:5])
		}
		count++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != n {
		t.Errorf("scanned %d rows, want %d", count, n)
	}
	if len(seenPages) != f.NumPages() {
		t.Errorf("scan touched %d pages, file has %d", len(seenPages), f.NumPages())
	}
}

func TestScanSkipsDeleted(t *testing.T) {
	f := newTestHeap(t)
	var rids []storage.RID
	for i := 0; i < 10; i++ {
		rid, _ := f.Insert([]byte{byte('0' + i)})
		rids = append(rids, rid)
	}
	f.Delete(rids[3])
	f.Delete(rids[7])
	it := f.Scan()
	defer it.Close()
	var got []byte
	for it.Next() {
		got = append(got, it.RowBytes()[0])
	}
	if string(got) != "01245689" {
		t.Errorf("scan = %q", got)
	}
}

func TestScanIsSequentialIO(t *testing.T) {
	d := storage.NewDiskManager(storage.IOModel{RandomRead: 4 * time.Millisecond, SeqRead: 100 * time.Microsecond})
	bp := storage.NewBufferPool(d, 16) // small pool: scan must hit disk
	f, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, 200)
	for i := 0; i < 2000; i++ {
		f.Insert(row)
	}
	if err := bp.Reset(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	it := f.Scan()
	for it.Next() {
	}
	it.Close()
	st := d.Stats()
	if st.PhysicalReads == 0 {
		t.Fatal("scan did no physical I/O")
	}
	if st.SequentialReads < st.PhysicalReads-1 {
		t.Errorf("scan: %d/%d reads sequential, want all but the first",
			st.SequentialReads, st.PhysicalReads)
	}
}

func TestRowTooLarge(t *testing.T) {
	f := newTestHeap(t)
	if _, err := f.Insert(make([]byte, storage.PageSize)); err == nil {
		t.Error("oversized insert succeeded")
	}
}

func TestRowBytesStableWithinPage(t *testing.T) {
	f := newTestHeap(t)
	f.Insert([]byte("abc"))
	f.Insert([]byte("def"))
	it := f.Scan()
	defer it.Close()
	it.Next()
	first := it.RowBytes()
	if !bytes.Equal(first, []byte("abc")) {
		t.Fatalf("first = %q", first)
	}
}
