// Package heap implements heap files: unordered collections of rows in
// slotted pages, appended in arrival order. A heap scan reads pages in PID
// order, so it has the grouped page access property the paper's §III-B
// exploits: once a scan leaves a page it never returns to it.
package heap

import (
	"fmt"

	"pagefeedback/internal/storage"
)

// File is one heap file. It is not safe for concurrent use.
type File struct {
	pool     *storage.BufferPool
	file     storage.FileID
	lastPage storage.PageID // page currently receiving inserts
	rowCount int64
}

// Create allocates a new empty heap file in pool.
func Create(pool *storage.BufferPool) (*File, error) {
	file := pool.Disk().CreateFile()
	pp, err := pool.NewPage(file, storage.PageTypeHeap)
	if err != nil {
		return nil, err
	}
	defer pp.Unpin(true)
	return &File{pool: pool, file: file, lastPage: pp.ID}, nil
}

// FileID returns the backing file.
func (f *File) FileID() storage.FileID { return f.file }

// NumPages returns the number of allocated pages.
func (f *File) NumPages() int { return f.pool.Disk().NumPages(f.file) }

// NumRows returns the number of live rows.
func (f *File) NumRows() int64 { return f.rowCount }

// Insert appends the encoded row, allocating a new page when the current one
// is full, and returns its RID.
func (f *File) Insert(rowBytes []byte) (storage.RID, error) {
	if len(rowBytes) > storage.PageSize/4 {
		return storage.RID{}, fmt.Errorf("heap: row of %d bytes too large", len(rowBytes))
	}
	pp, err := f.pool.FetchPage(f.file, f.lastPage)
	if err != nil {
		return storage.RID{}, err
	}
	slot, ok := pp.Page.InsertCell(rowBytes)
	if !ok {
		pp.Unpin(false)
		np, err := f.pool.NewPage(f.file, storage.PageTypeHeap)
		if err != nil {
			return storage.RID{}, err
		}
		f.lastPage = np.ID
		slot, ok = np.Page.InsertCell(rowBytes)
		if !ok {
			np.Unpin(true)
			return storage.RID{}, fmt.Errorf("heap: row does not fit in empty page")
		}
		rid := storage.RID{Page: np.ID, Slot: slot}
		np.Unpin(true)
		f.rowCount++
		return rid, nil
	}
	rid := storage.RID{Page: pp.ID, Slot: slot}
	pp.Unpin(true)
	f.rowCount++
	return rid, nil
}

// View locates the row at rid and calls fn with its bytes while the page is
// pinned. The cell aliases the page buffer and must not be retained after fn
// returns.
func (f *File) View(rid storage.RID, fn func(cell []byte) error) error {
	pp, err := f.pool.FetchPage(f.file, rid.Page)
	if err != nil {
		return err
	}
	defer pp.Unpin(false)
	if int(rid.Slot) >= pp.Page.NumSlots() {
		return fmt.Errorf("heap: no slot %v", rid)
	}
	cell := pp.Page.Cell(rid.Slot)
	if cell == nil {
		return fmt.Errorf("heap: slot %v deleted", rid)
	}
	return fn(cell)
}

// Delete removes the row at rid.
func (f *File) Delete(rid storage.RID) error {
	pp, err := f.pool.FetchPage(f.file, rid.Page)
	if err != nil {
		return err
	}
	defer pp.Unpin(true)
	if !pp.Page.DeleteCell(rid.Slot) {
		return fmt.Errorf("heap: no live slot %v", rid)
	}
	f.rowCount--
	return nil
}

// Iterator walks all live rows in PID/slot order (grouped page access).
// RowBytes aliases the pinned page; copy before the next Next.
type Iterator struct {
	f    *File
	pp   *storage.PinnedPage
	pid  storage.PageID
	slot int
	err  error
}

// Scan returns an iterator positioned before the first row.
func (f *File) Scan() *Iterator {
	return &Iterator{f: f, pid: 0, slot: -1}
}

// Next advances to the next live row, returning false at the end or on
// error (check Err).
func (it *Iterator) Next() bool {
	if it.err != nil {
		return false
	}
	for {
		if it.pp == nil {
			if int(it.pid) >= it.f.NumPages() {
				return false
			}
			pp, err := it.f.pool.FetchPage(it.f.file, it.pid)
			if err != nil {
				it.err = err
				return false
			}
			it.pp = pp
			it.slot = -1
		}
		it.slot++
		for it.slot < it.pp.Page.NumSlots() {
			if it.pp.Page.Cell(storage.SlotID(it.slot)) != nil {
				return true
			}
			it.slot++
		}
		it.pp.Unpin(false)
		it.pp = nil
		it.pid++
	}
}

// RID returns the current row's identifier.
func (it *Iterator) RID() storage.RID {
	return storage.RID{Page: it.pp.ID, Slot: storage.SlotID(it.slot)}
}

// RowBytes returns the current row (aliases the page buffer).
func (it *Iterator) RowBytes() []byte {
	return it.pp.Page.Cell(storage.SlotID(it.slot))
}

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's page pin; safe to call multiple times.
func (it *Iterator) Close() {
	if it.pp != nil {
		it.pp.Unpin(false)
		it.pp = nil
	}
	it.pid = storage.PageID(it.f.NumPages()) // exhaust
}

// PageScanner walks a file one page at a time, for page-batched execution:
// each page holding a live row is pinned once and handed to the caller whole.
type PageScanner struct {
	f   *File
	pid storage.PageID
	end storage.PageID // exclusive upper bound
	err error
}

// ScanPages returns a scanner positioned before the first page.
func (f *File) ScanPages() *PageScanner {
	return &PageScanner{f: f, end: storage.PageID(f.NumPages())}
}

// Range restricts the scanner to the contiguous page range [lo, hi) and
// returns it, for partitioned parallel scans: each worker takes a disjoint
// range, so together they visit every page exactly once and each partition
// retains the grouped page access property. hi is clamped to the file size.
func (ps *PageScanner) Range(lo, hi storage.PageID) *PageScanner {
	if n := storage.PageID(ps.f.NumPages()); hi > n {
		hi = n
	}
	ps.pid = lo
	ps.end = hi
	return ps
}

// Page pins the next page that holds a live row and returns it with its
// first live slot; pages with no live rows are skipped. It is the page step
// of page-batched execution: the caller walks the slots itself, from first
// to NumSlots, skipping deleted ones (nil cells). The caller owns the pin
// and must Unpin the page, deferred, so that no exit leaks it. Returns false
// when the range is exhausted or a read fails (check Err).
func (ps *PageScanner) Page() (*storage.PinnedPage, int, bool) {
	for ps.err == nil && ps.pid < ps.end {
		pp, err := ps.f.pool.FetchPage(ps.f.file, ps.pid)
		if err != nil {
			ps.err = err
			break
		}
		ps.pid++
		if first := firstLive(pp); first >= 0 {
			return pp, first, true
		}
	}
	return nil, 0, false
}

// firstLive returns the first live slot of pp. When pp has none it unpins
// pp and returns -1, and it unpins it as well if reading a corrupt slot
// directory panics, so a skipped page never keeps its pin.
func firstLive(pp *storage.PinnedPage) (first int) {
	first = -1
	defer func() {
		if first < 0 {
			pp.Unpin(false)
		}
	}()
	for s, n := 0, pp.Page.NumSlots(); s < n; s++ {
		if pp.Page.Cell(storage.SlotID(s)) != nil {
			return s
		}
	}
	return -1
}

// NextPage visits the next page that contains live rows, calling fn once per
// live cell in slot order. The cell aliases the pinned page and must not be
// retained after fn returns. It returns false when the file is exhausted, fn
// returns an error, or a read fails (check Err). The pin is released on
// every exit, a panic in fn included.
func (ps *PageScanner) NextPage(fn func(rid storage.RID, cell []byte) error) bool {
	pp, first, ok := ps.Page()
	if !ok {
		return false
	}
	defer pp.Unpin(false)
	for s, n := first, pp.Page.NumSlots(); s < n; s++ {
		cell := pp.Page.Cell(storage.SlotID(s))
		if cell == nil {
			continue
		}
		if err := fn(storage.RID{Page: pp.ID, Slot: storage.SlotID(s)}, cell); err != nil {
			ps.err = err
			return false
		}
	}
	return true
}

// Err returns the first error encountered.
func (ps *PageScanner) Err() error { return ps.err }
