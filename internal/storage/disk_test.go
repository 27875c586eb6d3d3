package storage

import (
	"testing"
	"time"
)

func testModel() IOModel {
	return IOModel{RandomRead: 4 * time.Millisecond, SeqRead: 100 * time.Microsecond}
}

func TestDiskCreateAllocReadWrite(t *testing.T) {
	d := NewDiskManager(testModel())
	f := d.CreateFile()
	pid, err := d.AllocPage(f)
	if err != nil {
		t.Fatal(err)
	}
	if pid != 0 {
		t.Errorf("first page = %d", pid)
	}
	src := make([]byte, PageSize)
	copy(src, "hello page")
	if err := d.WritePage(f, pid, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, PageSize)
	if err := d.ReadPage(f, pid, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst[:10]) != "hello page" {
		t.Errorf("read back %q", dst[:10])
	}
	if d.NumPages(f) != 1 {
		t.Errorf("NumPages = %d", d.NumPages(f))
	}
}

func TestDiskErrors(t *testing.T) {
	d := NewDiskManager(testModel())
	buf := make([]byte, PageSize)
	if err := d.ReadPage(99, 0, buf); err == nil {
		t.Error("read from missing file succeeded")
	}
	f := d.CreateFile()
	if err := d.ReadPage(f, 5, buf); err == nil {
		t.Error("read of unallocated page succeeded")
	}
	if err := d.WritePage(f, 5, buf); err == nil {
		t.Error("write of unallocated page succeeded")
	}
	if _, err := d.AllocPage(99); err == nil {
		t.Error("alloc in missing file succeeded")
	}
}

func TestDiskSequentialVsRandomClassification(t *testing.T) {
	d := NewDiskManager(testModel())
	f := d.CreateFile()
	for i := 0; i < 10; i++ {
		d.AllocPage(f)
	}
	buf := make([]byte, PageSize)
	// Scan pages 0..9 in order: 1 random (first) + 9 sequential.
	for i := 0; i < 10; i++ {
		if err := d.ReadPage(f, PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.RandomReads != 1 || st.SequentialReads != 9 {
		t.Errorf("scan: random=%d seq=%d, want 1/9", st.RandomReads, st.SequentialReads)
	}
	wantIO := testModel().RandomRead + 9*testModel().SeqRead
	if st.SimulatedIO != wantIO {
		t.Errorf("SimulatedIO = %v, want %v", st.SimulatedIO, wantIO)
	}
	// Now random hops: every read is a seek.
	d.ResetStats()
	for _, p := range []PageID{5, 2, 9, 0} {
		d.ReadPage(f, p, buf)
	}
	st = d.Stats()
	if st.RandomReads != 4 || st.SequentialReads != 0 {
		t.Errorf("hops: random=%d seq=%d, want 4/0", st.RandomReads, st.SequentialReads)
	}
}

func TestDiskSequentialAcrossFilesIsRandom(t *testing.T) {
	d := NewDiskManager(testModel())
	f1, f2 := d.CreateFile(), d.CreateFile()
	d.AllocPage(f1)
	d.AllocPage(f1)
	d.AllocPage(f2)
	d.AllocPage(f2)
	buf := make([]byte, PageSize)
	d.ReadPage(f1, 0, buf)
	d.ReadPage(f2, 1, buf) // different file, no prior read there: a seek
	st := d.Stats()
	if st.RandomReads != 2 {
		t.Errorf("RandomReads = %d, want 2", st.RandomReads)
	}
}

func TestDiskInterleavedStreamsStaySequential(t *testing.T) {
	// Per-file head tracking models read-ahead: two scans interleaving
	// their reads (as under an INL join) each stay sequential.
	d := NewDiskManager(testModel())
	f1, f2 := d.CreateFile(), d.CreateFile()
	for i := 0; i < 5; i++ {
		d.AllocPage(f1)
		d.AllocPage(f2)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < 5; i++ {
		d.ReadPage(f1, PageID(i), buf)
		d.ReadPage(f2, PageID(i), buf)
	}
	st := d.Stats()
	if st.RandomReads != 2 || st.SequentialReads != 8 {
		t.Errorf("interleaved: random=%d seq=%d, want 2/8", st.RandomReads, st.SequentialReads)
	}
}

func TestIOStatsSub(t *testing.T) {
	a := IOStats{PhysicalReads: 10, SequentialReads: 6, RandomReads: 4, PagesWritten: 2, SimulatedIO: time.Second}
	b := IOStats{PhysicalReads: 3, SequentialReads: 2, RandomReads: 1, PagesWritten: 1, SimulatedIO: time.Millisecond}
	got := a.Sub(b)
	if got.PhysicalReads != 7 || got.SequentialReads != 4 || got.RandomReads != 3 ||
		got.PagesWritten != 1 || got.SimulatedIO != time.Second-time.Millisecond {
		t.Errorf("Sub = %+v", got)
	}
}
