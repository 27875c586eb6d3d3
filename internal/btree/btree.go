// Package btree implements a page-based B+tree on top of the buffer pool.
//
// Keys and values are opaque byte strings; keys are compared with
// bytes.Compare, so callers use the order-preserving encoding from
// internal/tuple. The tree serves two roles in the engine:
//
//   - clustered tables: key = encoded clustering key, value = encoded row;
//     the (leaf page, slot) of a row is its RID, stable after bulk load;
//   - secondary indexes: key = encoded column values with an RID suffix for
//     uniqueness, value = empty.
//
// Leaves are linked left to right, so full scans of a bulk-loaded tree read
// pages in allocation order (sequential I/O), while trees grown by random
// Insert calls develop fragmentation (random I/O on scan) — the same
// behaviour that makes distinct page counts matter on real systems.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"pagefeedback/internal/storage"
)

// ErrDuplicateKey is returned by Insert when the exact key already exists.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// metaPageID is the fixed location of the tree's metadata page.
const metaPageID storage.PageID = 0

// Tree is a B+tree bound to one file of a buffer pool. It is not safe for
// concurrent use; the engine serializes access per the paper's single-query
// experiments.
type Tree struct {
	pool   *storage.BufferPool
	file   storage.FileID
	root   storage.PageID
	height int // 1 = root is a leaf
	// Statistics maintained for the catalog and cost model.
	leafCount  int64
	entryCount int64
}

// Create formats a new empty tree in a fresh file of pool and returns it.
func Create(pool *storage.BufferPool) (*Tree, error) {
	file := pool.Disk().CreateFile()
	meta, err := pool.NewPage(file, storage.PageTypeMeta)
	if err != nil {
		return nil, err
	}
	if meta.ID != metaPageID {
		meta.Unpin(false)
		return nil, fmt.Errorf("btree: meta page allocated at %d", meta.ID)
	}
	meta.Unpin(true)
	rootPage, err := pool.NewPage(file, storage.PageTypeBTreeLeaf)
	if err != nil {
		return nil, err
	}
	defer rootPage.Unpin(true)
	t := &Tree{pool: pool, file: file, root: rootPage.ID, height: 1, leafCount: 1}
	if err := t.saveMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// File returns the file backing the tree.
func (t *Tree) File() storage.FileID { return t.file }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// LeafPages returns the number of leaf pages.
func (t *Tree) LeafPages() int64 { return t.leafCount }

// Entries returns the number of key/value entries.
func (t *Tree) Entries() int64 { return t.entryCount }

func (t *Tree) saveMeta() error {
	meta, err := t.pool.FetchPage(t.file, metaPageID)
	if err != nil {
		return err
	}
	defer meta.Unpin(true)
	meta.Page.SetExtra(uint32(t.root))
	meta.Page.SetExtra2(uint32(t.height))
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(t.leafCount))
	binary.LittleEndian.PutUint64(buf[8:], uint64(t.entryCount))
	if meta.Page.NumSlots() == 0 {
		if _, ok := meta.Page.InsertCell(buf[:]); !ok {
			return errors.New("btree: meta page full")
		}
	} else {
		copy(meta.Page.Cell(0), buf[:])
	}
	return nil
}

// Cell layouts.
//
// Leaf cell:  [keyLen uint16][key][value]
// Inner cell: [keyLen uint16][key][child uint32]
//
// Inner-node convention: cell i holds (sepKey_i, child_i) where sepKey_i is
// the smallest key that was in child_i when the cell was created. A lookup
// descends into the child of the largest i with sepKey_i <= searchKey
// (child 0 if searchKey precedes every separator).

func leafCell(key, value []byte) []byte {
	c := make([]byte, 2+len(key)+len(value))
	binary.LittleEndian.PutUint16(c, uint16(len(key)))
	copy(c[2:], key)
	copy(c[2+len(key):], value)
	return c
}

func innerCell(key []byte, child storage.PageID) []byte {
	c := make([]byte, 2+len(key)+4)
	binary.LittleEndian.PutUint16(c, uint16(len(key)))
	copy(c[2:], key)
	binary.LittleEndian.PutUint32(c[2+len(key):], uint32(child))
	return c
}

func cellKey(cell []byte) []byte {
	n := binary.LittleEndian.Uint16(cell)
	return cell[2 : 2+n]
}

// LeafEntry splits a leaf cell into its key and value, both aliasing cell:
// a leaf cell is the key's 2-byte length, the key, then the value.
func LeafEntry(cell []byte) (key, value []byte) {
	n := binary.LittleEndian.Uint16(cell)
	return cell[2 : 2+n], cell[2+n:]
}

func innerCellChild(cell []byte) storage.PageID {
	n := binary.LittleEndian.Uint16(cell)
	return storage.PageID(binary.LittleEndian.Uint32(cell[2+n:]))
}

// findSlot binary-searches the page for key. It returns the index of the
// first slot whose key is >= key, and whether that slot's key equals key.
func findSlot(p *storage.Page, key []byte) (int, bool) {
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		cmp := bytes.Compare(cellKey(p.Cell(storage.SlotID(mid))), key)
		if cmp < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	exact := lo < p.NumSlots() && bytes.Equal(cellKey(p.Cell(storage.SlotID(lo))), key)
	return lo, exact
}

// childIndex returns the slot of the inner cell to descend into for key.
func childIndex(p *storage.Page, key []byte) int {
	// Largest i with sepKey_i <= key; 0 if key precedes everything.
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(cellKey(p.Cell(storage.SlotID(mid))), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// descend walks from the root to the leaf that should contain key, returning
// the pinned leaf and, when recordPath is true, the (pid, childSlot) pairs of
// the inner nodes visited.
type pathStep struct {
	pid  storage.PageID
	slot int
}

func (t *Tree) descend(key []byte, recordPath bool) (*storage.PinnedPage, []pathStep, error) {
	var path []pathStep
	pid := t.root
	for level := t.height; level > 1; level-- {
		child, idx, err := t.descendStep(pid, key)
		if err != nil {
			return nil, nil, err
		}
		if recordPath {
			path = append(path, pathStep{pid: pid, slot: idx})
		}
		pid = child
	}
	leaf, err := t.pool.FetchPage(t.file, pid)
	if err != nil {
		return nil, nil, err
	}
	return leaf, path, nil
}

// descendStep reads one inner node and returns the child to follow, with the
// inner page's pin scoped to this call.
func (t *Tree) descendStep(pid storage.PageID, key []byte) (child storage.PageID, idx int, err error) {
	pp, err := t.pool.FetchPage(t.file, pid)
	if err != nil {
		return 0, 0, err
	}
	defer pp.Unpin(false)
	idx = childIndex(pp.Page, key)
	return innerCellChild(pp.Page.Cell(storage.SlotID(idx))), idx, nil
}

// LeafStarts returns the PID of every leaf page in leaf-chain order, reading
// only the internal levels of the tree — the level above the leaves holds
// one child pointer per leaf, so collecting leaves costs O(leaves/fanout)
// page reads and touches no data page. Parallel scans use the result to
// split a clustered table into contiguous leaf ranges.
func (t *Tree) LeafStarts() ([]storage.PageID, error) {
	out := make([]storage.PageID, 0, t.leafCount)
	err := t.collectLeaves(t.root, t.height, &out)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// collectLeaves appends the leaf PIDs under pid (at the given level) in key
// order. Children of one inner node are stored in ascending key order and
// siblings chain left to right, so an in-order walk yields leaf-chain order.
func (t *Tree) collectLeaves(pid storage.PageID, level int, out *[]storage.PageID) error {
	if level == 1 {
		*out = append(*out, pid)
		return nil
	}
	children, err := t.innerChildren(pid)
	if err != nil {
		return err
	}
	for _, c := range children {
		if err := t.collectLeaves(c, level-1, out); err != nil {
			return err
		}
	}
	return nil
}

// innerChildren copies one inner node's child pointers, with the page pin
// scoped to this call.
func (t *Tree) innerChildren(pid storage.PageID) ([]storage.PageID, error) {
	pp, err := t.pool.FetchPage(t.file, pid)
	if err != nil {
		return nil, err
	}
	defer pp.Unpin(false)
	children := make([]storage.PageID, 0, pp.Page.NumSlots())
	for s := 0; s < pp.Page.NumSlots(); s++ {
		children = append(children, innerCellChild(pp.Page.Cell(storage.SlotID(s))))
	}
	return children, nil
}

// View locates the entry at rid and calls fn with its value bytes while the
// leaf is pinned. The value aliases the page buffer and must not be retained
// after fn returns.
func (t *Tree) View(rid storage.RID, fn func(value []byte) error) error {
	pp, err := t.pool.FetchPage(t.file, rid.Page)
	if err != nil {
		return err
	}
	defer pp.Unpin(false)
	if pp.Page.Type() != storage.PageTypeBTreeLeaf {
		return fmt.Errorf("btree: RID %v is not in a leaf page", rid)
	}
	cell := pp.Page.Cell(rid.Slot)
	if cell == nil {
		return fmt.Errorf("btree: RID %v points at deleted slot", rid)
	}
	_, v := LeafEntry(cell)
	return fn(v)
}

// Insert stores value under key. It returns ErrDuplicateKey if key exists.
// It returns the RID where the entry landed (meaningful for clustered
// tables; note that later splits can move entries inserted this way, so
// tables that must keep stable RIDs are bulk-loaded instead).
func (t *Tree) Insert(key, value []byte) (storage.RID, error) {
	cell := leafCell(key, value)
	if len(cell) > storage.PageSize/4 {
		return storage.RID{}, fmt.Errorf("btree: entry of %d bytes too large", len(cell))
	}
	leaf, path, err := t.descend(key, true)
	if err != nil {
		return storage.RID{}, err
	}
	slot, exact := findSlot(leaf.Page, key)
	if exact {
		leaf.Unpin(false)
		return storage.RID{}, ErrDuplicateKey
	}
	if s, ok := leaf.Page.InsertCellAt(slot, cell); ok {
		rid := storage.RID{Page: leaf.ID, Slot: s}
		leaf.Unpin(true)
		t.entryCount++
		return rid, t.saveMeta()
	}
	// Leaf full. Entries are never deleted and a split compacts both
	// halves, so the page holds no dead space to reclaim: split it.
	rid, err := t.splitLeafAndInsert(leaf, path, slot, cell)
	if err != nil {
		return storage.RID{}, err
	}
	t.entryCount++
	return rid, t.saveMeta()
}

// splitLeafAndInsert splits the (pinned, full) leaf, inserts the cell into
// the proper half, and pushes the new separator up the recorded path.
// It consumes the leaf pin.
func (t *Tree) splitLeafAndInsert(leaf *storage.PinnedPage, path []pathStep, slot int, cell []byte) (storage.RID, error) {
	right, err := t.pool.NewPage(t.file, storage.PageTypeBTreeLeaf)
	if err != nil {
		leaf.Unpin(false)
		return storage.RID{}, err
	}
	t.leafCount++
	n := leaf.Page.NumSlots()
	mid := n / 2
	// Move upper half to the right page.
	for i := mid; i < n; i++ {
		c := leaf.Page.Cell(storage.SlotID(i))
		if _, ok := right.Page.InsertCell(c); !ok {
			right.Unpin(true)
			leaf.Unpin(true)
			return storage.RID{}, errors.New("btree: split overflow")
		}
	}
	for i := n - 1; i >= mid; i-- {
		leaf.Page.RemoveCellAt(i)
	}
	leaf.Page.Compact()
	right.Page.SetNext(leaf.Page.Next())
	leaf.Page.SetNext(right.ID)

	var rid storage.RID
	if slot < mid {
		s, ok := leaf.Page.InsertCellAt(slot, cell)
		if !ok {
			right.Unpin(true)
			leaf.Unpin(true)
			return storage.RID{}, errors.New("btree: no room after split (left)")
		}
		rid = storage.RID{Page: leaf.ID, Slot: s}
	} else {
		s, ok := right.Page.InsertCellAt(slot-mid, cell)
		if !ok {
			right.Unpin(true)
			leaf.Unpin(true)
			return storage.RID{}, errors.New("btree: no room after split (right)")
		}
		rid = storage.RID{Page: right.ID, Slot: s}
	}
	sepKey := append([]byte(nil), cellKey(right.Page.Cell(0))...)
	rightID := right.ID
	right.Unpin(true)
	leaf.Unpin(true)
	return rid, t.insertIntoParent(path, sepKey, rightID)
}

// insertIntoParent inserts (sepKey -> child) into the deepest node of path,
// splitting upward as needed. An empty path means the root split.
func (t *Tree) insertIntoParent(path []pathStep, sepKey []byte, child storage.PageID) error {
	if len(path) == 0 {
		return t.growRoot(sepKey, child)
	}
	step := path[len(path)-1]
	parent, err := t.pool.FetchPage(t.file, step.pid)
	if err != nil {
		return err
	}
	cell := innerCell(sepKey, child)
	slot, _ := findSlot(parent.Page, sepKey)
	if _, ok := parent.Page.InsertCellAt(slot, cell); ok {
		parent.Unpin(true)
		return nil
	}
	// Split the inner node. Unlike leaves, the middle separator moves up
	// rather than being copied.
	right, err := t.pool.NewPage(t.file, storage.PageTypeBTreeInner)
	if err != nil {
		parent.Unpin(true)
		return err
	}
	n := parent.Page.NumSlots()
	mid := n / 2
	pushKey := append([]byte(nil), cellKey(parent.Page.Cell(storage.SlotID(mid)))...)
	for i := mid; i < n; i++ {
		c := parent.Page.Cell(storage.SlotID(i))
		if _, ok := right.Page.InsertCell(c); !ok {
			right.Unpin(true)
			parent.Unpin(true)
			return errors.New("btree: inner split overflow")
		}
	}
	for i := n - 1; i >= mid; i-- {
		parent.Page.RemoveCellAt(i)
	}
	parent.Page.Compact()

	// Insert the pending cell into whichever half owns it.
	target := parent.Page
	if bytes.Compare(sepKey, pushKey) >= 0 {
		target = right.Page
	}
	s, _ := findSlot(target, sepKey)
	if _, ok := target.InsertCellAt(s, cell); !ok {
		right.Unpin(true)
		parent.Unpin(true)
		return errors.New("btree: no room after inner split")
	}
	rightID := right.ID
	right.Unpin(true)
	parent.Unpin(true)
	return t.insertIntoParent(path[:len(path)-1], pushKey, rightID)
}

// growRoot installs a new root above the current one.
func (t *Tree) growRoot(sepKey []byte, rightChild storage.PageID) error {
	newRoot, err := t.pool.NewPage(t.file, storage.PageTypeBTreeInner)
	if err != nil {
		return err
	}
	// Left cell: separator is a minimal sentinel (empty key sorts first for
	// int/string tags, since any tag byte > 0x00... an empty key is a valid
	// "less than everything" separator because childIndex falls back to 0).
	if _, ok := newRoot.Page.InsertCell(innerCell(nil, t.root)); !ok {
		newRoot.Unpin(true)
		return errors.New("btree: cannot seed new root")
	}
	if _, ok := newRoot.Page.InsertCell(innerCell(sepKey, rightChild)); !ok {
		newRoot.Unpin(true)
		return errors.New("btree: cannot seed new root")
	}
	t.root = newRoot.ID
	t.height++
	newRoot.Unpin(true)
	return nil
}
