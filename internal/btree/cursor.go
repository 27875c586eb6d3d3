package btree

import (
	"fmt"

	"pagefeedback/internal/storage"
)

// Cursor iterates leaf entries in key order. Obtain one from SeekGE or
// SeekFirst; call Next until it returns false; always Close. Key and Value
// alias the pinned leaf page and are valid only until the next Next or Close.
type Cursor struct {
	tree *Tree
	leaf *storage.PinnedPage
	slot int
	err  error
	// bounded cursors (CursorAtLeaf) stop after consuming a fixed number of
	// leaves instead of following the chain to the end of the tree.
	bounded    bool
	leavesLeft int // further leaves the cursor may still enter
}

// SeekFirst positions a cursor at the smallest entry.
func (t *Tree) SeekFirst() (*Cursor, error) {
	return t.SeekGE(nil) // nil key sorts before every real key
}

// SeekGE positions a cursor at the first entry with key >= the given key.
func (t *Tree) SeekGE(key []byte) (*Cursor, error) {
	leaf, _, err := t.descend(key, false)
	if err != nil {
		return nil, err
	}
	c := &Cursor{tree: t, leaf: leaf}
	slot, _ := findSlot(leaf.Page, key)
	c.slot = slot - 1 // Next() advances to `slot`
	return c, nil
}

// CursorAtLeaf positions a cursor before the first entry of leaf pid and
// limits it to nleaves consecutive leaves (counting pid itself). Together
// with LeafStarts it splits a tree into contiguous leaf ranges: partition i
// gets CursorAtLeaf(starts[off], len(chunk)) and stops exactly where
// partition i+1 begins, so every leaf is visited by exactly one cursor.
func (t *Tree) CursorAtLeaf(pid storage.PageID, nleaves int) (*Cursor, error) {
	if nleaves <= 0 {
		return nil, fmt.Errorf("btree: CursorAtLeaf with %d leaves", nleaves)
	}
	pp, err := t.pool.FetchPage(t.file, pid)
	if err != nil {
		return nil, err
	}
	return &Cursor{tree: t, leaf: pp, slot: -1, bounded: true, leavesLeft: nleaves - 1}, nil
}

// cross moves the cursor into the next leaf holding an entry it has not
// consumed, when the current leaf has none left: it unpins the current leaf,
// follows the chain past empty leaves, and honors the leaf budget of bounded
// cursors. It is the one place a cursor changes leaves. Returns false at the
// end of the range or tree, or on a read error (recorded).
func (c *Cursor) cross() bool {
	for c.slot+1 >= c.leaf.Page.NumSlots() {
		next := c.leaf.Page.Next()
		c.leaf.Unpin(false)
		c.leaf = nil
		if next == storage.InvalidPageID {
			return false
		}
		if c.bounded {
			if c.leavesLeft == 0 {
				return false
			}
			c.leavesLeft--
		}
		pp, err := c.tree.pool.FetchPage(c.tree.file, next)
		if err != nil {
			c.err = err
			return false
		}
		c.leaf = pp
		c.slot = -1
	}
	return true
}

// Next advances to the next entry, returning false at the end of the tree or
// on error (check Err).
func (c *Cursor) Next() bool {
	if c.err != nil || c.leaf == nil || !c.cross() {
		return false
	}
	c.slot++
	return true
}

// Leaf hands the caller the cursor's current leaf and the address of its
// first entry not yet consumed, crossing into the next leaf first when the
// current one is used up. It is the page step of page-batched execution:
// the caller walks the leaf's slots itself, from that slot to NumSlots, and
// splits each cell with LeafEntry. Every entry of the leaf counts as
// consumed, so the next call crosses on. The cursor keeps the leaf pinned
// until then, or until Close: the page and the cells read from it are valid
// only until that call. Returns false at the end of the range or tree, or on
// error (check Err).
func (c *Cursor) Leaf() (*storage.Page, storage.RID, bool) {
	if c.err != nil || c.leaf == nil || !c.cross() {
		return nil, storage.RID{}, false
	}
	first := storage.RID{Page: c.leaf.ID, Slot: storage.SlotID(c.slot + 1)}
	c.slot = c.leaf.Page.NumSlots() - 1
	return c.leaf.Page, first, true
}

// NextLeaf consumes the rest of the current leaf in one call: fn is invoked
// for every remaining entry of the leaf, with key and value aliasing the
// pinned page (do not retain them). If fn returns false, iteration stops
// with the cursor on that entry and NextLeaf returns false. Crossing into
// the next leaf happens lazily on the following call, so the just-consumed
// leaf remains the cursor's current page until then. Returns false at the
// end of the tree or on error (check Err).
func (c *Cursor) NextLeaf(fn func(key, value []byte, rid storage.RID) bool) bool {
	page, rid, ok := c.Leaf()
	if !ok {
		return false
	}
	for n := page.NumSlots(); int(rid.Slot) < n; rid.Slot++ {
		key, value := LeafEntry(page.Cell(rid.Slot))
		if !fn(key, value, rid) {
			c.slot = int(rid.Slot)
			return false
		}
	}
	return true
}

// Key returns the current entry's key (aliases the page buffer).
func (c *Cursor) Key() []byte {
	return cellKey(c.leaf.Page.Cell(storage.SlotID(c.slot)))
}

// Value returns the current entry's value (aliases the page buffer).
func (c *Cursor) Value() []byte {
	_, v := LeafEntry(c.leaf.Page.Cell(storage.SlotID(c.slot)))
	return v
}

// RID returns the (leaf page, slot) address of the current entry.
func (c *Cursor) RID() storage.RID {
	return storage.RID{Page: c.leaf.ID, Slot: storage.SlotID(c.slot)}
}

// Err returns the first error encountered while iterating.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's page pin. It is safe to call multiple times.
func (c *Cursor) Close() {
	if c.leaf != nil {
		c.leaf.Unpin(false)
		c.leaf = nil
	}
}
