// Package storage implements the lowest layer of the engine: fixed-size
// slotted pages, an in-memory disk manager that charges simulated I/O time
// and distinguishes sequential from random reads, and an LRU buffer pool.
//
// The distinct-page-count mechanisms of the paper are defined in terms of
// page identity (PID) and page-access order, so this layer models both
// faithfully: every row has a PID, heap and clustered-index scans touch each
// page exactly once (the "grouped page access" property), and index fetches
// touch pages in row order with repeats.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of every page in bytes (matching SQL Server's 8 KB).
const PageSize = 8192

// PageID identifies a page within one file. InvalidPageID marks "no page".
type PageID uint32

// InvalidPageID is the nil page reference.
const InvalidPageID PageID = 0xFFFFFFFF

// SlotID identifies a cell within a page.
type SlotID uint16

// RID is a row identifier: the page holding the row and the slot within it.
type RID struct {
	Page PageID
	Slot SlotID
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Page types stored in the page header.
const (
	PageTypeFree       byte = iota // unallocated
	PageTypeHeap                   // heap data page
	PageTypeBTreeLeaf              // B+tree leaf
	PageTypeBTreeInner             // B+tree internal node
	PageTypeMeta                   // file metadata page
)

// Page header layout (bytes 0..15 are reserved for the owner):
//
//	off 0:  page type (byte)
//	off 4:  next page (uint32), e.g. right-sibling pointer for leaves
//	off 8:  extra (uint32), e.g. the root of a B+tree meta page
//	off 12: extra2 (uint32), e.g. the height of a B+tree meta page
//
// Slot machinery starts at byte 16:
//
//	off 16: number of slots (uint16)
//	off 18: cellStart (uint16): offset of the lowest cell byte
//	off 20: slot directory, 4 bytes per slot (offset uint16, length uint16)
//
// Cells are allocated from the end of the page downward; the slot directory
// grows upward. A slot offset of 0xFFFF marks a deleted slot.
const (
	headerSize     = 16
	offNumSlots    = 16
	offCellStart   = 18
	slotDirStart   = 20
	slotEntrySize  = 4
	deletedSlotOff = 0xFFFF
)

// Page is one fixed-size slotted page. The zero value is not usable; obtain
// pages from a File via the buffer pool or call InitPage on a raw buffer.
type Page struct {
	buf []byte
}

// InitPage formats buf (which must be PageSize bytes) as an empty page of the
// given type and returns it.
func InitPage(buf []byte, typ byte) *Page {
	if len(buf) != PageSize {
		panic(fmt.Sprintf("storage: InitPage on %d-byte buffer", len(buf)))
	}
	for i := range buf {
		buf[i] = 0
	}
	p := &Page{buf: buf}
	p.buf[0] = typ
	p.SetNext(InvalidPageID)
	binary.LittleEndian.PutUint16(p.buf[offNumSlots:], 0)
	binary.LittleEndian.PutUint16(p.buf[offCellStart:], PageSize)
	return p
}

// Type returns the page type byte.
func (p *Page) Type() byte { return p.buf[0] }

// SetType updates the page type byte.
func (p *Page) SetType(t byte) { p.buf[0] = t }

// Next returns the next-page pointer.
func (p *Page) Next() PageID {
	return PageID(binary.LittleEndian.Uint32(p.buf[4:]))
}

// SetNext updates the next-page pointer.
func (p *Page) SetNext(id PageID) {
	binary.LittleEndian.PutUint32(p.buf[4:], uint32(id))
}

// SetExtra updates the first owner-defined header word.
func (p *Page) SetExtra(v uint32) { binary.LittleEndian.PutUint32(p.buf[8:], v) }

// SetExtra2 updates the second owner-defined header word.
func (p *Page) SetExtra2(v uint32) { binary.LittleEndian.PutUint32(p.buf[12:], v) }

// NumSlots returns the number of slots in the directory, including deleted ones.
func (p *Page) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf[offNumSlots:]))
}

func (p *Page) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.buf[offNumSlots:], uint16(n))
}

func (p *Page) cellStart() int {
	return int(binary.LittleEndian.Uint16(p.buf[offCellStart:]))
}

func (p *Page) setCellStart(n int) {
	binary.LittleEndian.PutUint16(p.buf[offCellStart:], uint16(n))
}

func (p *Page) slotEntry(i int) (off, length int) {
	base := slotDirStart + i*slotEntrySize
	return int(binary.LittleEndian.Uint16(p.buf[base:])),
		int(binary.LittleEndian.Uint16(p.buf[base+2:]))
}

func (p *Page) setSlotEntry(i, off, length int) {
	base := slotDirStart + i*slotEntrySize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// FreeSpace returns the number of contiguous free bytes available for one new
// cell (accounting for its slot-directory entry).
func (p *Page) FreeSpace() int {
	free := p.cellStart() - (slotDirStart + p.NumSlots()*slotEntrySize)
	free -= slotEntrySize // room for the new cell's own slot entry
	if free < 0 {
		return 0
	}
	return free
}

// Cell returns the bytes of slot i, or nil if the slot is deleted. The
// returned slice aliases the page buffer and must not be retained across
// page modifications.
func (p *Page) Cell(i SlotID) []byte {
	off, length := p.slotEntry(int(i))
	if off == deletedSlotOff {
		return nil
	}
	return p.buf[off : off+length]
}

// InsertCell appends a cell at the end of the slot directory. It returns the
// new slot and true, or 0 and false if the page lacks space.
func (p *Page) InsertCell(data []byte) (SlotID, bool) {
	return p.InsertCellAt(p.NumSlots(), data)
}

// InsertCellAt inserts a cell so that it becomes slot i, shifting subsequent
// slot entries up by one (used to keep B+tree nodes sorted). It returns the
// slot and true, or 0 and false if the page lacks space or i is out of range.
func (p *Page) InsertCellAt(i int, data []byte) (SlotID, bool) {
	n := p.NumSlots()
	if i < 0 || i > n {
		return 0, false
	}
	if len(data) > p.FreeSpace() {
		return 0, false
	}
	newStart := p.cellStart() - len(data)
	copy(p.buf[newStart:], data)
	// Shift slot entries [i, n) up one position.
	if i < n {
		src := slotDirStart + i*slotEntrySize
		end := slotDirStart + n*slotEntrySize
		copy(p.buf[src+slotEntrySize:end+slotEntrySize], p.buf[src:end])
	}
	p.setSlotEntry(i, newStart, len(data))
	p.setNumSlots(n + 1)
	p.setCellStart(newStart)
	return SlotID(i), true
}

// DeleteCell marks slot i deleted. The space is reclaimed by Compact. It
// returns false if i is out of range or already deleted.
func (p *Page) DeleteCell(i SlotID) bool {
	if int(i) >= p.NumSlots() {
		return false
	}
	off, _ := p.slotEntry(int(i))
	if off == deletedSlotOff {
		return false
	}
	p.setSlotEntry(int(i), deletedSlotOff, 0)
	return true
}

// RemoveCellAt removes slot i entirely, shifting subsequent slot entries down
// (used by B+tree nodes where slot positions encode sort order). The cell
// bytes are reclaimed by Compact.
func (p *Page) RemoveCellAt(i int) bool {
	n := p.NumSlots()
	if i < 0 || i >= n {
		return false
	}
	src := slotDirStart + (i+1)*slotEntrySize
	end := slotDirStart + n*slotEntrySize
	copy(p.buf[slotDirStart+i*slotEntrySize:], p.buf[src:end])
	p.setNumSlots(n - 1)
	return true
}

// Compact rewrites the page so that live cells are contiguous, reclaiming
// space from deleted or removed cells. Slot numbering is preserved.
func (p *Page) Compact() {
	n := p.NumSlots()
	type live struct {
		slot, off, length int
	}
	var cells []live
	for i := 0; i < n; i++ {
		off, length := p.slotEntry(i)
		if off != deletedSlotOff {
			cells = append(cells, live{i, off, length})
		}
	}
	newStart := PageSize
	// Copy cell payloads out first, then back in, so overlaps are safe.
	payload := make([][]byte, len(cells))
	for i, c := range cells {
		payload[i] = append([]byte(nil), p.buf[c.off:c.off+c.length]...)
	}
	for i, c := range cells {
		newStart -= c.length
		copy(p.buf[newStart:], payload[i])
		p.setSlotEntry(c.slot, newStart, c.length)
	}
	p.setCellStart(newStart)
}

// Bytes exposes the raw page buffer (for the disk manager and tests).
func (p *Page) Bytes() []byte { return p.buf }
