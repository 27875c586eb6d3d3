package storage

import (
	"fmt"
	"testing"
)

func newPoolForTest(capacity int) (*BufferPool, FileID) {
	d := NewDiskManager(testModel())
	bp := NewBufferPool(d, capacity)
	return bp, d.CreateFile()
}

func TestBufferPoolNewPageAndFetch(t *testing.T) {
	bp, f := newPoolForTest(8)
	pp, err := bp.NewPage(f, PageTypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	pp.Page.InsertCell([]byte("payload"))
	pid := pp.ID
	pp.Unpin(true)

	got, err := bp.FetchPage(f, pid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Page.Cell(0)) != "payload" {
		t.Errorf("cell = %q", got.Page.Cell(0))
	}
	got.Unpin(false)
	st := bp.Stats()
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want 1 (page was cached)", st.Hits)
	}
}

// TestPinAllocatesNothing: a frame owns the handle its pins return, so a warm
// FetchPage/Unpin allocates nothing, and a miss that evicts reuses the
// victim's handle for the new page.
func TestPinAllocatesNothing(t *testing.T) {
	bp, f := newPoolForTest(8)
	var pids []PageID
	for i := 0; i < 16; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pp.ID)
		pp.Unpin(true)
	}
	warm := func() {
		pp, err := bp.FetchPage(f, pids[15])
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(false)
	}
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Errorf("warm FetchPage/Unpin allocates %v times", n)
	}
	i := 0
	miss := func() {
		i++
		pp, err := bp.FetchPage(f, pids[i%len(pids)])
		if err != nil {
			t.Fatal(err)
		}
		if pp.ID != pids[i%len(pids)] || pp.File != f {
			t.Fatalf("handle names page %d of file %d, want %d of %d", pp.ID, pp.File, pids[i%len(pids)], f)
		}
		pp.Unpin(false)
	}
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Errorf("FetchPage/Unpin cycling through evictions allocates %v times", n)
	}
}

func TestBufferPoolTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBufferPool(1) did not panic")
		}
	}()
	d := NewDiskManager(testModel())
	NewBufferPool(d, 1)
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	bp, f := newPoolForTest(8)
	// Create 20 pages through an 8-page pool; early pages must be evicted
	// and written back, then read back intact.
	for i := 0; i < 20; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pp.Page.InsertCell([]byte(fmt.Sprintf("page-%d", i)))
		pp.Unpin(true)
	}
	if bp.Stats().Evictions == 0 {
		t.Fatal("no evictions happened")
	}
	for i := 0; i < 20; i++ {
		pp, err := bp.FetchPage(f, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("page-%d", i); string(pp.Page.Cell(0)) != want {
			t.Errorf("page %d cell = %q, want %q", i, pp.Page.Cell(0), want)
		}
		pp.Unpin(false)
	}
}

func TestBufferPoolClockSecondChance(t *testing.T) {
	bp, f := newPoolForTest(8)
	if bp.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1 at capacity 8", bp.Shards())
	}
	var pids []PageID
	for i := 0; i < 8; i++ {
		pp, _ := bp.NewPage(f, PageTypeHeap)
		pids = append(pids, pp.ID)
		pp.Unpin(true)
	}
	// Force one eviction cycle: the sweep clears every reference bit, wraps,
	// and evicts the oldest frame (pids[0]).
	pp, _ := bp.NewPage(f, PageTypeHeap)
	pp.Unpin(true)

	// Re-reference a resident page; its second-chance bit must protect it
	// from the next eviction while an unreferenced neighbour is taken.
	pp, err := bp.FetchPage(f, pids[1])
	if err != nil {
		t.Fatal(err)
	}
	pp.Unpin(false)
	npp, _ := bp.NewPage(f, PageTypeHeap)
	npp.Unpin(true)

	bp.Disk().ResetStats()
	pp, _ = bp.FetchPage(f, pids[1]) // referenced: must still be cached
	pp.Unpin(false)
	if got := bp.Disk().Stats().PhysicalReads; got != 0 {
		t.Errorf("referenced page was evicted (physical reads = %d)", got)
	}
	bp.Disk().ResetStats()
	pp, _ = bp.FetchPage(f, pids[0]) // victim of the first sweep
	pp.Unpin(false)
	if got := bp.Disk().Stats().PhysicalReads; got != 1 {
		t.Errorf("unreferenced page was not evicted (physical reads = %d)", got)
	}
}

func TestBufferPoolAllPinnedError(t *testing.T) {
	bp, f := newPoolForTest(8)
	var pins []*PinnedPage
	for i := 0; i < 8; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, pp)
	}
	if _, err := bp.NewPage(f, PageTypeHeap); err == nil {
		t.Error("NewPage with all frames pinned succeeded")
	}
	for _, pp := range pins {
		pp.Unpin(false)
	}
	if _, err := bp.NewPage(f, PageTypeHeap); err != nil {
		t.Errorf("NewPage after unpin failed: %v", err)
	}
}

func TestBufferPoolDoubleUnpinPanics(t *testing.T) {
	bp, f := newPoolForTest(8)
	pp, _ := bp.NewPage(f, PageTypeHeap)
	pp.Unpin(false)
	defer func() {
		if recover() == nil {
			t.Error("double unpin did not panic")
		}
	}()
	pp.Unpin(false)
}

func TestBufferPoolResetColdCache(t *testing.T) {
	bp, f := newPoolForTest(16)
	pp, _ := bp.NewPage(f, PageTypeHeap)
	pp.Page.InsertCell([]byte("durable"))
	pid := pp.ID
	pp.Unpin(true)

	if err := bp.Reset(); err != nil {
		t.Fatal(err)
	}
	bp.Disk().ResetStats()
	got, err := bp.FetchPage(f, pid)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Unpin(false)
	if bp.Disk().Stats().PhysicalReads != 1 {
		t.Error("Reset did not cold the cache")
	}
	if string(got.Page.Cell(0)) != "durable" {
		t.Error("dirty page lost across Reset")
	}
}

// TestBufferPoolResetKeepsBuffers: refilling a pool after Reset reuses the
// page buffers Reset dropped, so a cold re-read allocates no page buffer, and
// it reads, hits, evicts and charges simulated I/O exactly as a new pool fed
// the same requests.
func TestBufferPoolResetKeepsBuffers(t *testing.T) {
	const pages, capacity = 96, 64
	d := NewDiskManager(testModel())
	f := d.CreateFile()
	load := NewBufferPool(d, capacity)
	for i := 0; i < pages; i++ {
		pp, err := load.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pp.Page.InsertCell([]byte(fmt.Sprintf("page-%d", i)))
		pp.Unpin(true)
	}
	if err := load.Flush(); err != nil {
		t.Fatal(err)
	}

	// buffers returns the page buffers of the pool's resident frames.
	buffers := func(bp *BufferPool) map[*byte]bool {
		out := map[*byte]bool{}
		for _, s := range bp.shards {
			for _, fr := range s.ring {
				out[&fr.buf[0]] = true
			}
		}
		return out
	}
	// sweep reads every page twice in a scattered order, through more pages
	// than the pool holds, and returns the pool and disk counters. The disk
	// head starts at the same page every time.
	raw := make([]byte, PageSize)
	sweep := func(bp *BufferPool) (PoolStats, IOStats) {
		if err := d.ReadPage(f, 0, raw); err != nil {
			t.Fatal(err)
		}
		bp.ResetStats()
		d.ResetStats()
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < pages; i++ {
				pid := PageID(i * 37 % pages)
				pp, err := bp.FetchPage(f, pid)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("page-%d", pid); string(pp.Page.Cell(0)) != want {
					t.Fatalf("page %d cell = %q, want %q", pid, pp.Page.Cell(0), want)
				}
				pp.Unpin(false)
			}
		}
		return bp.Stats(), d.Stats()
	}

	bp := NewBufferPool(d, capacity)
	wantPool, wantIO := sweep(bp)
	owned := buffers(bp)
	if wantPool.Evictions == 0 {
		t.Fatal("the sweep evicted nothing; it must fill and churn the pool")
	}
	for round := 0; round < 2; round++ {
		if err := bp.Reset(); err != nil {
			t.Fatal(err)
		}
		gotPool, gotIO := sweep(bp)
		if gotPool != wantPool || gotIO != wantIO {
			t.Errorf("round %d: after Reset pool %+v io %+v, new pool %+v io %+v", round, gotPool, gotIO, wantPool, wantIO)
		}
		got := buffers(bp)
		for b := range got {
			if !owned[b] {
				t.Errorf("round %d: re-reading after Reset allocated a page buffer", round)
				break
			}
		}
		if len(got) != len(owned) {
			t.Errorf("round %d: %d frames resident, a new pool had %d", round, len(got), len(owned))
		}
	}
}

// TestBufferPoolResetAllocatesNothing: once a pool has been filled and reset,
// resetting it again — after refilling it, with evictions — allocates
// nothing: the frame maps are cleared in place and the frames' buffers go to
// the spare lists.
func TestBufferPoolResetAllocatesNothing(t *testing.T) {
	const pages, capacity = 48, 32
	bp, f := newPoolForTest(capacity)
	var pids []PageID
	for i := 0; i < pages; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pp.ID)
		pp.Unpin(true)
	}
	cycle := func() {
		for _, pid := range pids {
			pp, err := bp.FetchPage(f, pid)
			if err != nil {
				t.Fatal(err)
			}
			pp.Unpin(false)
		}
		if err := bp.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm: the first reset flushes the new pages and fills the spare lists
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("refill + Reset allocates %v times, want 0", n)
	}
}

func TestBufferPoolResetWithPinnedFails(t *testing.T) {
	bp, f := newPoolForTest(8)
	pp, _ := bp.NewPage(f, PageTypeHeap)
	defer pp.Unpin(false)
	if err := bp.Reset(); err == nil {
		t.Error("Reset with pinned page succeeded")
	}
}

func TestBufferPoolFlush(t *testing.T) {
	bp, f := newPoolForTest(8)
	pp, _ := bp.NewPage(f, PageTypeHeap)
	pp.Page.InsertCell([]byte("flushed"))
	pid := pp.ID
	pp.Unpin(true)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read straight from disk, bypassing the pool.
	raw := make([]byte, PageSize)
	if err := bp.Disk().ReadPage(f, pid, raw); err != nil {
		t.Fatal(err)
	}
	if string((&Page{buf: raw}).Cell(0)) != "flushed" {
		t.Error("Flush did not write page to disk")
	}
}

func TestPoolStatsSub(t *testing.T) {
	a := PoolStats{LogicalReads: 10, Hits: 5, Evictions: 2}
	b := PoolStats{LogicalReads: 4, Hits: 1, Evictions: 1}
	got := a.Sub(b)
	if got.LogicalReads != 6 || got.Hits != 4 || got.Evictions != 1 {
		t.Errorf("Sub = %+v", got)
	}
	if r := got.HitRatio(); r != 4.0/6 {
		t.Errorf("HitRatio = %v, want %v", r, 4.0/6)
	}
}

func TestHitRatioZeroWithoutLogicalReads(t *testing.T) {
	// A window in which pages entered the pool without a logical read (here
	// by NewPage; in a query, one cancelled before its first fetch) has zero
	// logical reads; HitRatio must report 0, not NaN.
	bp, f := newPoolForTest(64)
	before := bp.Stats()
	pids := make([]PageID, 0, 8)
	for i := 0; i < 8; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pp.ID)
		pp.Unpin(true)
	}
	window := bp.Stats().Sub(before)
	if window.LogicalReads != 0 {
		t.Fatalf("LogicalReads = %d, want 0 (NewPage only)", window.LogicalReads)
	}
	if got := window.HitRatio(); got != 0 {
		t.Errorf("HitRatio = %v, want 0", got)
	}

	// And a normal window still reports a real ratio.
	before = bp.Stats()
	for _, pid := range pids[:4] {
		pp, err := bp.FetchPage(f, pid)
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(false)
	}
	window = bp.Stats().Sub(before)
	if got := window.HitRatio(); got != 1 {
		t.Errorf("HitRatio = %v, want 1 (all resident)", got)
	}
}
