// Package catalog defines tables, secondary indexes, and the catalog that
// owns them. It gives the executor and optimizer a uniform view of storage:
// every table supports a full scan in page order (grouped page access) and
// point fetches by RID; every secondary index supports range seeks that
// yield RIDs.
package catalog

import (
	"fmt"
	"sort"
	"strings"

	"pagefeedback/internal/btree"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/heap"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// StorageKind says how a table's rows are physically arranged.
type StorageKind uint8

// Table storage kinds.
const (
	// KindHeap stores rows in arrival order in a heap file.
	KindHeap StorageKind = iota
	// KindClustered stores rows in clustering-key order in B+tree leaves.
	KindClustered
)

// Table is one base table.
type Table struct {
	Name        string
	Schema      *tuple.Schema
	Kind        StorageKind
	ClusterCols []string // clustering key columns (KindClustered only)

	heapFile  *heap.File
	clustered *btree.Tree
	indexes   []*Index
	version   int64 // bumped by every mutation; see Version
}

// Version returns the table's modification counter. Every Insert, Delete,
// and BulkLoad advances it; consumers of execution feedback compare the
// version a page count was observed at against the current one to decide
// whether the observation is still trustworthy.
func (t *Table) Version() int64 { return t.version }

// Index is one secondary (non-clustered) index. Entries are
// EncodeKey(column values..., rid) with an empty value, so duplicate column
// values stay unique and the RID is recovered from the key's last value.
type Index struct {
	Name  string
	Table *Table
	Cols  []string
	tree  *btree.Tree
}

// Catalog owns all tables of a database instance.
type Catalog struct {
	pool   *storage.BufferPool
	tables map[string]*Table
}

// New creates an empty catalog over pool.
func New(pool *storage.BufferPool) *Catalog {
	return &Catalog{pool: pool, tables: make(map[string]*Table)}
}

// Pool returns the buffer pool backing the catalog.
func (c *Catalog) Pool() *storage.BufferPool { return c.pool }

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateHeapTable creates an empty heap table.
func (c *Catalog) CreateHeapTable(name string, schema *tuple.Schema) (*Table, error) {
	if _, dup := c.Table(name); dup {
		return nil, fmt.Errorf("catalog: table %q exists", name)
	}
	hf, err := heap.Create(c.pool)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema, Kind: KindHeap, heapFile: hf}
	c.tables[strings.ToLower(name)] = t
	return t, nil
}

// CreateClusteredTable creates an empty clustered table keyed on clusterCols,
// which must exist in the schema and form a unique key of the data loaded.
func (c *Catalog) CreateClusteredTable(name string, schema *tuple.Schema, clusterCols []string) (*Table, error) {
	if _, dup := c.Table(name); dup {
		return nil, fmt.Errorf("catalog: table %q exists", name)
	}
	for _, col := range clusterCols {
		if _, ok := schema.Ordinal(col); !ok {
			return nil, fmt.Errorf("catalog: clustering column %q not in schema", col)
		}
	}
	tr, err := btree.Create(c.pool)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema, Kind: KindClustered, ClusterCols: clusterCols, clustered: tr}
	c.tables[strings.ToLower(name)] = t
	return t, nil
}

// clusterKey encodes the clustering-key values of row.
func (t *Table) clusterKey(row tuple.Row) []byte {
	var key []byte
	for _, col := range t.ClusterCols {
		key = tuple.AppendKey(key, row[t.Schema.MustOrdinal(col)])
	}
	return key
}

// Insert adds one row and returns its RID. For clustered tables prefer
// BulkLoad: incremental inserts can split leaves, moving earlier rows and
// invalidating their RIDs (and any secondary index built on them).
func (t *Table) Insert(row tuple.Row) (storage.RID, error) {
	enc, err := tuple.Encode(nil, t.Schema, row)
	if err != nil {
		return storage.RID{}, err
	}
	t.version++
	switch t.Kind {
	case KindHeap:
		return t.heapFile.Insert(enc)
	case KindClustered:
		return t.clustered.Insert(t.clusterKey(row), enc)
	default:
		return storage.RID{}, fmt.Errorf("catalog: bad storage kind %d", t.Kind)
	}
}

// BulkLoad loads rows in one pass and returns their RIDs in input order.
// Heap tables keep arrival order. Clustered tables require rows already
// sorted by the clustering key (strictly: the key must be unique), and pack
// leaves densely so RIDs are stable afterward.
func (t *Table) BulkLoad(rows []tuple.Row) ([]storage.RID, error) {
	t.version++
	switch t.Kind {
	case KindHeap:
		rids := make([]storage.RID, len(rows))
		for i, row := range rows {
			enc, err := tuple.Encode(nil, t.Schema, row)
			if err != nil {
				return nil, err
			}
			rid, err := t.heapFile.Insert(enc)
			if err != nil {
				return nil, err
			}
			rids[i] = rid
		}
		return rids, nil
	case KindClustered:
		entries := make([]btree.Entry, len(rows))
		for i, row := range rows {
			enc, err := tuple.Encode(nil, t.Schema, row)
			if err != nil {
				return nil, err
			}
			entries[i] = btree.Entry{Key: t.clusterKey(row), Value: enc}
		}
		res, err := t.clustered.BulkLoad(entries, 1.0)
		if err != nil {
			return nil, err
		}
		return res.RIDs, nil
	default:
		return nil, fmt.Errorf("catalog: bad storage kind %d", t.Kind)
	}
}

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int64 {
	if t.Kind == KindHeap {
		return t.heapFile.NumRows()
	}
	return t.clustered.Entries()
}

// NumPages returns the number of data pages (heap pages or clustered-index
// leaf pages) — the P of the paper's cost formulas and Table I.
func (t *Table) NumPages() int64 {
	if t.Kind == KindHeap {
		return int64(t.heapFile.NumPages())
	}
	return t.clustered.LeafPages()
}

// ClusterHeight returns the clustered B+tree height (0 for heaps), for
// costing the descent of a clustered range seek.
func (t *Table) ClusterHeight() int {
	if t.Kind != KindClustered {
		return 0
	}
	return t.clustered.Height()
}

// FetchRow reads the row at rid. This is the Fetch the paper's access-method
// costing is about: each distinct page touched is a logical (and on a cold
// cache, physical random) I/O.
func (t *Table) FetchRow(rid storage.RID) (tuple.Row, error) {
	var enc []byte
	var err error
	if t.Kind == KindHeap {
		enc, err = t.heapFile.Get(rid)
	} else {
		_, enc, err = t.clustered.Get(rid)
	}
	if err != nil {
		return nil, err
	}
	return tuple.Decode(t.Schema, enc)
}

// FetchRowInto reads the row at rid, decoding into row's backing array when
// it has capacity, and returns the (possibly grown) row. The decode happens
// while the data page is pinned, so no intermediate copy of the encoded row
// is made. Rows fetched this way are valid until the next FetchRowInto with
// the same destination.
func (t *Table) FetchRowInto(dst tuple.Row, rid storage.RID) (tuple.Row, error) {
	out := dst[:0]
	decode := func(enc []byte) error {
		vals, err := tuple.DecodeAppend(out, t.Schema, enc)
		out = vals
		return err
	}
	var err error
	if t.Kind == KindHeap {
		err = t.heapFile.View(rid, decode)
	} else {
		err = t.clustered.View(rid, decode)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FetchRowAppend reads the row at rid and, unless keep rejects its encoded
// cell, appends its decoded values to arena: the columns in want, the others
// as zero Values (see tuple.DecodeAppendCols). It returns the grown arena and
// whether the row was kept; a nil keep keeps every row. Unlike FetchRowInto,
// the destination is shared by many rows: batch operators accumulate a
// batch's worth of fetches into one reused arena with no copy per row,
// building row views over it once it stops growing. The judgment and the
// decode both happen under the data page's pin, so a rejected row costs no
// decode and no copy.
func (t *Table) FetchRowAppend(arena []tuple.Value, rid storage.RID, want uint64, keep CellFilter) ([]tuple.Value, bool, error) {
	out := arena
	kept := false
	decode := func(enc []byte) error {
		if keep != nil && !keep.Keep(enc) {
			return nil
		}
		kept = true
		vals, err := tuple.DecodeAppendCols(out, t.Schema, enc, want)
		out = vals
		return err
	}
	var err error
	if t.Kind == KindHeap {
		err = t.heapFile.View(rid, decode)
	} else {
		err = t.clustered.View(rid, decode)
	}
	if err != nil {
		return nil, false, err
	}
	return out, kept, nil
}

// Indexes returns the table's secondary indexes.
func (t *Table) Indexes() []*Index { return t.indexes }

// IndexByName finds a secondary index by name (case-insensitive).
func (t *Table) IndexByName(name string) (*Index, bool) {
	for _, ix := range t.indexes {
		if strings.EqualFold(ix.Name, name) {
			return ix, true
		}
	}
	return nil, false
}

// RowBatch holds every row of one data page, decoded into a flat value
// arena that is reused across pages: a steady-state scan allocates O(pages),
// not O(rows). Rows[i] is a view into the arena valid only until the next
// NextPage call on the same batch.
type RowBatch struct {
	PID  storage.PageID
	RIDs []storage.RID
	Rows []tuple.Row
	// Skip selects, by bit (column i = bit i), the columns left undecoded:
	// they hold the zero Value of their kind (see tuple.DecodeAppendCols).
	// The zero mask decodes whole rows.
	Skip uint64
	vals []tuple.Value // flat arena backing Rows

	// finish memo: a row view depends only on the arena's backing array,
	// the column count, and the row index, so views built for one page are
	// reused verbatim for the next as long as the arena has not moved.
	arena0    *tuple.Value // first element of the arena the views were built over
	rowsBuilt int          // number of views built over arena0
	rowsNcols int
}

// Len returns the number of rows in the batch.
func (b *RowBatch) Len() int { return len(b.RIDs) }

func (b *RowBatch) reset() {
	b.RIDs = b.RIDs[:0]
	b.Rows = b.Rows[:0]
	b.vals = b.vals[:0]
}

// add decodes one encoded row into the arena. Row views are built in finish,
// after the arena has stopped growing (appends may move it).
func (b *RowBatch) add(s *tuple.Schema, rid storage.RID, enc []byte) error {
	vals, err := tuple.DecodeAppendCols(b.vals, s, enc, ^b.Skip)
	if err != nil {
		return err
	}
	b.vals = vals
	b.RIDs = append(b.RIDs, rid)
	return nil
}

// finish materializes the per-row views over the settled arena.
func (b *RowBatch) finish(ncols int) {
	n := len(b.RIDs)
	if n == 0 {
		return
	}
	if ncols > 0 && b.rowsNcols == ncols && b.arena0 == &b.vals[0] && n <= b.rowsBuilt {
		b.Rows = b.Rows[:n]
		return
	}
	b.Rows = b.Rows[:0]
	for i := 0; i < n; i++ {
		b.Rows = append(b.Rows, tuple.Row(b.vals[i*ncols:(i+1)*ncols:(i+1)*ncols]))
	}
	if ncols > 0 {
		b.arena0 = &b.vals[0]
		b.rowsBuilt = n
		b.rowsNcols = ncols
	}
}

// RowIter walks a table's rows in physical page order, either row at a time
// (Next) or page at a time (NextPage). Do not mix the two styles on one
// iterator.
type RowIter struct {
	table *Table
	hit   *heap.Iterator
	cur   *btree.Cursor
	hi    []byte // exclusive clustered-key upper bound, nil = none
	row   tuple.Row
	rid   storage.RID
	err   error

	pscan *heap.PageScanner // lazily created by NextPage on heap tables
	done  bool              // NextPage hit the hi bound
}

// ScanAll returns an iterator over all rows in page order. It has the
// grouped page access property: pages are visited exactly once, in
// ascending PID order for heaps and leaf-chain order for clustered tables.
func (t *Table) ScanAll() (*RowIter, error) {
	it := &RowIter{table: t}
	if t.Kind == KindHeap {
		it.hit = t.heapFile.Scan()
		return it, nil
	}
	cur, err := t.clustered.SeekFirst()
	if err != nil {
		return nil, err
	}
	it.cur = cur
	return it, nil
}

// ScanRange returns an iterator over the clustered-key range [r.Lo, r.Hi),
// in key (and hence page) order — the clustered index range seek access
// path. Only clustered tables support it.
func (t *Table) ScanRange(r expr.KeyRange) (*RowIter, error) {
	if t.Kind != KindClustered {
		return nil, fmt.Errorf("catalog: range scan on non-clustered table %s", t.Name)
	}
	cur, err := t.clustered.SeekGE(r.Lo)
	if err != nil {
		return nil, err
	}
	return &RowIter{table: t, cur: cur, hi: r.Hi}, nil
}

// ScanPart is one partition of a partitioned full scan: a page-at-a-time
// iterator over a contiguous page range, plus the pages it will visit in
// visit order so workers can hand them to the buffer-pool prefetcher.
type ScanPart struct {
	Iter  *RowIter
	File  storage.FileID
	Pages []storage.PageID
}

// ScanPartitions splits a full scan into at most n page-disjoint contiguous
// partitions, each preserving grouped page access within itself: heap files
// split into PID ranges, clustered tables into leaf-chain ranges (located
// via the internal levels only — no data page is read here). Fewer than n
// partitions are returned when the table has fewer pages. The iterators
// support only NextPage; each must be closed by its consumer.
func (t *Table) ScanPartitions(n int) ([]ScanPart, error) {
	if n < 1 {
		n = 1
	}
	if t.Kind == KindHeap {
		total := t.heapFile.NumPages()
		if n > total {
			n = total
		}
		parts := make([]ScanPart, 0, n)
		for i := 0; i < n; i++ {
			lo := storage.PageID(total * i / n)
			hi := storage.PageID(total * (i + 1) / n)
			if lo == hi {
				continue
			}
			pages := make([]storage.PageID, 0, hi-lo)
			for pid := lo; pid < hi; pid++ {
				pages = append(pages, pid)
			}
			parts = append(parts, ScanPart{
				Iter:  &RowIter{table: t, pscan: t.heapFile.ScanPages().Range(lo, hi)},
				File:  t.heapFile.FileID(),
				Pages: pages,
			})
		}
		return parts, nil
	}
	leaves, err := t.clustered.LeafStarts()
	if err != nil {
		return nil, err
	}
	total := len(leaves)
	if n > total {
		n = total
	}
	parts := make([]ScanPart, 0, n)
	for i := 0; i < n; i++ {
		chunk := leaves[total*i/n : total*(i+1)/n]
		if len(chunk) == 0 {
			continue
		}
		cur, err := t.clustered.CursorAtLeaf(chunk[0], len(chunk))
		if err != nil {
			for _, p := range parts {
				p.Iter.Close()
			}
			return nil, err
		}
		parts = append(parts, ScanPart{
			Iter:  &RowIter{table: t, cur: cur},
			File:  t.clustered.File(),
			Pages: chunk,
		})
	}
	return parts, nil
}

// Next advances to the next row; false at the end or on error (check Err).
func (it *RowIter) Next() bool {
	if it.err != nil {
		return false
	}
	if it.hit != nil {
		if !it.hit.Next() {
			it.err = it.hit.Err()
			return false
		}
		it.rid = it.hit.RID()
		it.row, it.err = tuple.Decode(it.table.Schema, it.hit.RowBytes())
		return it.err == nil
	}
	if !it.cur.Next() {
		it.err = it.cur.Err()
		return false
	}
	if it.hi != nil && string(it.cur.Key()) >= string(it.hi) {
		return false
	}
	it.rid = it.cur.RID()
	it.row, it.err = tuple.Decode(it.table.Schema, it.cur.Value())
	return it.err == nil
}

// CellFilter decides which encoded rows are decoded — the catalog's side of
// late materialization. Keep must keep cells it cannot interpret, so
// corruption still surfaces as a decode error.
type CellFilter interface {
	Keep(cell []byte) bool
}

// CellJudge is a scan's CellFilter, told page by page which page's cells it
// is judging. The scan operators' shared page visit implements it to judge
// the predicate on encoded bytes.
type CellJudge interface {
	// EnterPage announces the page whose cells follow, before the first of
	// them is judged.
	EnterPage(pid storage.PageID)
	CellFilter
}

// keepFunc adapts a bare cell filter to CellJudge.
type keepFunc func(cell []byte) bool

func (keepFunc) EnterPage(storage.PageID) {}
func (f keepFunc) Keep(cell []byte) bool  { return f(cell) }

// NextPage fills b with every row of the next data page (heap page or
// clustered leaf), pinning the page exactly once. It preserves grouped page
// access: each page is visited once, in physical order, and for range scans
// rows beyond the upper bound are excluded. Returns false when the scan is
// exhausted or on error (check Err); b is valid until the next NextPage.
func (it *RowIter) NextPage(b *RowBatch) bool {
	_, ok := it.NextPageJudged(b, nil)
	return ok
}

// NextPageFiltered is NextPage for consumers that can judge a row from its
// encoded bytes (late materialization): keep decides each cell, only
// accepted cells are decoded into b, and the returned total counts every
// cell of the page — the caller's CPU accounting charges whole pages
// exactly as the decoding path does. keep must accept cells it cannot
// interpret, so corruption still surfaces as a decode error.
func (it *RowIter) NextPageFiltered(b *RowBatch, keep func(enc []byte) bool) (int, bool) {
	return it.NextPageJudged(b, keepFunc(keep))
}

// NextPageJudged is the one page step behind NextPage and NextPageFiltered:
// it pins the next data page once, tells j which page it is, and decodes
// into b only the cells j keeps (every cell when j is nil). b.PID is the
// page and total its cell count whether or not any cell was kept.
func (it *RowIter) NextPageJudged(b *RowBatch, j CellJudge) (total int, ok bool) {
	if it.err != nil || it.done {
		return 0, false
	}
	b.reset()
	schema := it.table.Schema
	visit := func(rid storage.RID, cell []byte) error {
		if total == 0 {
			b.PID = rid.Page
			if j != nil {
				j.EnterPage(rid.Page)
			}
		}
		total++
		if j != nil && !j.Keep(cell) {
			return nil
		}
		return b.add(schema, rid, cell)
	}
	if it.table.Kind == KindHeap {
		if it.pscan == nil {
			it.pscan = it.table.heapFile.ScanPages()
		}
		ok = it.pscan.NextPage(visit)
		it.err = it.pscan.Err()
	} else {
		it.cur.NextLeaf(func(key, val []byte, rid storage.RID) bool {
			if it.hi != nil && string(key) >= string(it.hi) {
				it.done = true
				return false
			}
			it.err = visit(rid, val)
			return it.err == nil
		})
		if it.err == nil {
			it.err = it.cur.Err()
		}
		ok = total > 0
	}
	if it.err != nil || !ok {
		return 0, false
	}
	b.finish(schema.NumColumns())
	return total, true
}

// Row returns the current row.
func (it *RowIter) Row() tuple.Row { return it.row }

// RID returns the current row's identifier.
func (it *RowIter) RID() storage.RID { return it.rid }

// Err returns the first error encountered.
func (it *RowIter) Err() error { return it.err }

// Close releases resources; safe to call multiple times.
func (it *RowIter) Close() {
	if it.hit != nil {
		it.hit.Close()
	}
	if it.cur != nil {
		it.cur.Close()
	}
}

// CreateIndex builds a secondary index over cols by scanning the table.
// The index stores only its key columns (plus the RID), so it covers a
// query exactly when every referenced column is among cols.
func (c *Catalog) CreateIndex(name string, table *Table, cols []string) (*Index, error) {
	if _, dup := table.IndexByName(name); dup {
		return nil, fmt.Errorf("catalog: index %q exists on %s", name, table.Name)
	}
	ords := make([]int, len(cols))
	for i, col := range cols {
		o, ok := table.Schema.Ordinal(col)
		if !ok {
			return nil, fmt.Errorf("catalog: no column %q in %s", col, table.Name)
		}
		ords[i] = o
	}
	it, err := table.ScanAll()
	if err != nil {
		return nil, err
	}
	var entries []btree.Entry
	for it.Next() {
		row := it.Row()
		var key []byte
		for _, o := range ords {
			key = tuple.AppendKey(key, row[o])
		}
		key = tuple.AppendKey(key, tuple.Int64(it.RID().AsInt64()))
		entries = append(entries, btree.Entry{Key: key})
	}
	it.Close()
	if err := it.Err(); err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool {
		return string(entries[i].Key) < string(entries[j].Key)
	})
	tr, err := btree.Create(c.pool)
	if err != nil {
		return nil, err
	}
	if _, err := tr.BulkLoad(entries, 1.0); err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Table: table, Cols: cols, tree: tr}
	table.indexes = append(table.indexes, ix)
	return ix, nil
}

// Covers reports whether the index key contains every column in need.
func (ix *Index) Covers(need []string) bool {
	for _, n := range need {
		found := false
		for _, c := range ix.Cols {
			if strings.EqualFold(c, n) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// LeafPages returns the number of index leaf pages (for index I/O costing).
func (ix *Index) LeafPages() int64 { return ix.tree.LeafPages() }

// Height returns the index tree height.
func (ix *Index) Height() int { return ix.tree.Height() }

// EntryIter iterates index entries within one key range. The values exposed
// by Values are decoded into a buffer reused across entries: they are valid
// only until the next call to Next.
type EntryIter struct {
	ix     *Index
	cur    *btree.Cursor
	hi     []byte
	vals   []tuple.Value
	buf    []tuple.Value // reused decode buffer backing vals
	rid    storage.RID
	err    error
	nCols  int
	closed bool
}

// SeekRange opens an iterator over entries in [r.Lo, r.Hi).
func (ix *Index) SeekRange(r expr.KeyRange) (*EntryIter, error) {
	cur, err := ix.tree.SeekGE(r.Lo)
	if err != nil {
		return nil, err
	}
	return &EntryIter{ix: ix, cur: cur, hi: r.Hi, nCols: len(ix.Cols)}, nil
}

// Next advances to the next entry in range.
func (it *EntryIter) Next() bool {
	if it.err != nil || it.closed {
		return false
	}
	if !it.cur.Next() {
		it.err = it.cur.Err()
		return false
	}
	key := it.cur.Key()
	if it.hi != nil && string(key) >= string(it.hi) {
		return false
	}
	vals, err := tuple.DecodeKeyAppend(it.buf[:0], key)
	if err != nil {
		it.err = err
		return false
	}
	it.buf = vals
	if len(vals) != it.nCols+1 {
		it.err = fmt.Errorf("catalog: index %s entry has %d values, want %d", it.ix.Name, len(vals), it.nCols+1)
		return false
	}
	it.vals = vals[:it.nCols]
	it.rid = storage.RIDFromInt64(vals[it.nCols].Int)
	// Re-tag date columns (key codec decodes ints generically).
	for i, col := range it.ix.Cols {
		if o, ok := it.ix.Table.Schema.Ordinal(col); ok {
			if it.ix.Table.Schema.Column(o).Kind == tuple.KindDate && it.vals[i].Kind == tuple.KindInt {
				it.vals[i].Kind = tuple.KindDate
			}
		}
	}
	return true
}

// Values returns the current entry's key column values.
func (it *EntryIter) Values() []tuple.Value { return it.vals }

// RID returns the current entry's row identifier.
func (it *EntryIter) RID() storage.RID { return it.rid }

// LeafPage returns the index leaf page holding the current entry, letting
// callers act at leaf granularity (e.g. poll cancellation once per leaf).
func (it *EntryIter) LeafPage() storage.PageID { return it.cur.RID().Page }

// Err returns the first error encountered.
func (it *EntryIter) Err() error { return it.err }

// Close releases the iterator; safe to call multiple times.
func (it *EntryIter) Close() {
	if !it.closed {
		it.cur.Close()
		it.closed = true
	}
}
