package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestPage() *Page {
	return InitPage(make([]byte, PageSize), PageTypeHeap)
}

func TestInitPage(t *testing.T) {
	p := newTestPage()
	if p.Type() != PageTypeHeap {
		t.Errorf("Type = %d", p.Type())
	}
	if p.Next() != InvalidPageID {
		t.Errorf("Next = %d, want invalid", p.Next())
	}
	if p.NumSlots() != 0 {
		t.Errorf("NumSlots = %d", p.NumSlots())
	}
	if fs := p.FreeSpace(); fs < PageSize-64 {
		t.Errorf("FreeSpace = %d, suspiciously small", fs)
	}
}

func TestInitPageWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InitPage(short buffer) did not panic")
		}
	}()
	InitPage(make([]byte, 100), PageTypeHeap)
}

func TestPageHeaderFields(t *testing.T) {
	p := newTestPage()
	p.SetType(PageTypeBTreeLeaf)
	p.SetNext(42)
	p.SetExtra(7)
	p.SetExtra2(9)
	extra := binary.LittleEndian.Uint32(p.Bytes()[8:])
	extra2 := binary.LittleEndian.Uint32(p.Bytes()[12:])
	if p.Type() != PageTypeBTreeLeaf || p.Next() != 42 || extra != 7 || extra2 != 9 {
		t.Errorf("header round trip failed: %d %d %d %d", p.Type(), p.Next(), extra, extra2)
	}
}

func TestInsertAndReadCells(t *testing.T) {
	p := newTestPage()
	var want [][]byte
	for i := 0; i < 50; i++ {
		cell := []byte(fmt.Sprintf("cell-%03d-%s", i, bytes.Repeat([]byte{byte(i)}, i)))
		slot, ok := p.InsertCell(cell)
		if !ok {
			t.Fatalf("insert %d failed", i)
		}
		if int(slot) != i {
			t.Fatalf("slot = %d, want %d", slot, i)
		}
		want = append(want, cell)
	}
	for i, w := range want {
		if got := p.Cell(SlotID(i)); !bytes.Equal(got, w) {
			t.Errorf("cell %d mismatch", i)
		}
	}
}

func TestInsertCellAtKeepsOrder(t *testing.T) {
	p := newTestPage()
	// Insert values in random order at their sorted position.
	vals := rand.New(rand.NewSource(7)).Perm(100)
	var sorted []int
	for _, v := range vals {
		pos := 0
		for pos < len(sorted) && sorted[pos] < v {
			pos++
		}
		cell := []byte(fmt.Sprintf("%04d", v))
		if _, ok := p.InsertCellAt(pos, cell); !ok {
			t.Fatalf("InsertCellAt(%d) failed", pos)
		}
		sorted = append(sorted[:pos], append([]int{v}, sorted[pos:]...)...)
	}
	for i, v := range sorted {
		want := fmt.Sprintf("%04d", v)
		if got := string(p.Cell(SlotID(i))); got != want {
			t.Fatalf("slot %d = %q, want %q", i, got, want)
		}
	}
}

func TestInsertCellAtBounds(t *testing.T) {
	p := newTestPage()
	if _, ok := p.InsertCellAt(-1, []byte("x")); ok {
		t.Error("InsertCellAt(-1) succeeded")
	}
	if _, ok := p.InsertCellAt(1, []byte("x")); ok {
		t.Error("InsertCellAt past end succeeded")
	}
}

func TestInsertFullPage(t *testing.T) {
	p := newTestPage()
	cell := make([]byte, 100)
	n := 0
	for {
		if _, ok := p.InsertCell(cell); !ok {
			break
		}
		n++
	}
	// 8KB page, 100-byte cells + 4-byte slots: expect roughly 78 cells.
	if n < 70 || n > 82 {
		t.Errorf("fit %d cells, expected ~78", n)
	}
	if _, ok := p.InsertCell([]byte("tiny")); !ok {
		t.Log("page exactly full") // small cell may or may not fit; no assertion
	}
}

func TestDeleteAndCompact(t *testing.T) {
	p := newTestPage()
	for i := 0; i < 20; i++ {
		p.InsertCell(bytes.Repeat([]byte{byte(i)}, 200))
	}
	freeBefore := p.FreeSpace()
	for i := 0; i < 20; i += 2 {
		if !p.DeleteCell(SlotID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if p.Cell(0) != nil {
		t.Error("deleted cell still readable")
	}
	if !bytes.Equal(p.Cell(1), bytes.Repeat([]byte{1}, 200)) {
		t.Error("surviving cell corrupted by delete")
	}
	if p.DeleteCell(0) {
		t.Error("double delete succeeded")
	}
	if p.DeleteCell(99) {
		t.Error("out-of-range delete succeeded")
	}
	p.Compact()
	if p.FreeSpace() <= freeBefore {
		t.Errorf("Compact did not reclaim space: %d -> %d", freeBefore, p.FreeSpace())
	}
	for i := 1; i < 20; i += 2 {
		if !bytes.Equal(p.Cell(SlotID(i)), bytes.Repeat([]byte{byte(i)}, 200)) {
			t.Errorf("cell %d corrupted by Compact", i)
		}
	}
}

func TestRemoveCellAt(t *testing.T) {
	p := newTestPage()
	for i := 0; i < 5; i++ {
		p.InsertCell([]byte{byte('a' + i)})
	}
	if !p.RemoveCellAt(1) {
		t.Fatal("RemoveCellAt(1) failed")
	}
	want := []string{"a", "c", "d", "e"}
	if p.NumSlots() != 4 {
		t.Fatalf("NumSlots = %d", p.NumSlots())
	}
	for i, w := range want {
		if got := string(p.Cell(SlotID(i))); got != w {
			t.Errorf("slot %d = %q, want %q", i, got, w)
		}
	}
	if p.RemoveCellAt(9) {
		t.Error("out-of-range RemoveCellAt succeeded")
	}
}

func TestPageQuickInsertRead(t *testing.T) {
	// Property: any sequence of short cells inserted at the end reads back.
	f := func(cells [][]byte) bool {
		p := newTestPage()
		var kept [][]byte
		for _, c := range cells {
			if len(c) > 256 {
				c = c[:256]
			}
			if _, ok := p.InsertCell(c); !ok {
				break
			}
			kept = append(kept, c)
		}
		for i, w := range kept {
			if !bytes.Equal(p.Cell(SlotID(i)), w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRIDString(t *testing.T) {
	r := RID{Page: 12, Slot: 3}
	if got := r.String(); got != "12:3" {
		t.Errorf("RID.String = %q", got)
	}
}
