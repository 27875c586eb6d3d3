package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestBufferPoolShardSplit(t *testing.T) {
	cases := []struct {
		capacity   int
		wantShards int
	}{
		{8, 1},     // minimum pool: one shard keeps all-pinned semantics exact
		{15, 1},    // splitting would drop a shard below minShardPages
		{16, 2},    // 2×8
		{64, 8},    // 8×8
		{128, 16},  // capped at maxPoolShards
		{8192, 16}, // default engine pool
		{100, 8},   // non-power-of-two capacity still splits
	}
	for _, c := range cases {
		d := NewDiskManager(testModel())
		bp := NewBufferPool(d, c.capacity)
		if bp.Shards() != c.wantShards {
			t.Errorf("capacity %d: Shards() = %d, want %d", c.capacity, bp.Shards(), c.wantShards)
		}
		sum := 0
		for _, s := range bp.shards {
			if s.capacity < minShardPages {
				t.Errorf("capacity %d: shard capacity %d below minimum %d", c.capacity, s.capacity, minShardPages)
			}
			sum += s.capacity
		}
		if sum != c.capacity {
			t.Errorf("capacity %d: shard capacities sum to %d", c.capacity, sum)
		}
	}
}

// TestBufferPoolConcurrentStress hammers one pool from many goroutines with
// fetches, re-pins, and dirty unpins through a pool far smaller than the page
// working set, so eviction, write-back, and the CLOCK hand all run under the
// race detector. Per-shard exhaustion is tolerated (pins are transient); any
// other error fails the test.
func TestBufferPoolConcurrentStress(t *testing.T) {
	d := NewDiskManager(testModel())
	bp := NewBufferPool(d, 64)
	f := d.CreateFile()
	const npages = 256
	for i := 0; i < npages; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pp.Page.InsertCell([]byte(fmt.Sprintf("page-%d", i)))
		pp.Unpin(true)
	}

	const workers = 8
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				pid := PageID(rng.Intn(npages))
				pp, err := bp.FetchPage(f, pid)
				if err != nil {
					if errors.Is(err, ErrPoolExhausted) {
						continue
					}
					errCh <- err
					return
				}
				if want := fmt.Sprintf("page-%d", pid); string(pp.Page.Cell(0)) != want {
					errCh <- fmt.Errorf("page %d content = %q, want %q", pid, pp.Page.Cell(0), want)
					pp.Unpin(false)
					return
				}
				pp.Unpin(rng.Intn(4) == 0) // occasional dirty unpin
			}
		}(int64(w))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := bp.Pinned(); n != 0 {
		t.Errorf("Pinned() = %d after all workers released", n)
	}
	st := bp.Stats()
	if st.LogicalReads < workers*opsPerWorker {
		t.Errorf("LogicalReads = %d, want >= %d", st.LogicalReads, workers*opsPerWorker)
	}
	if st.Hits > st.LogicalReads {
		t.Errorf("Hits %d exceeds LogicalReads %d", st.Hits, st.LogicalReads)
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferPoolSweepsDuringFetches runs the pool's all-shard sweeps —
// Reset, Stats, Pinned, Flush and ResetStats — beside fetch/unpin workers.
// Reset holds every shard lock at once, so a sweep that takes shard locks
// in any other order than ascending deadlocks against it; the race
// detector cannot see that, so a watchdog turns a hang into a failure.
func TestBufferPoolSweepsDuringFetches(t *testing.T) {
	d := NewDiskManager(testModel())
	bp := NewBufferPool(d, 64)
	f := d.CreateFile()
	const npages = 256
	for i := 0; i < npages; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(true)
	}

	const workers, sweepers, opsPerWorker = 8, 2, 2000
	errCh := make(chan error, workers+sweepers)
	stop := make(chan struct{})
	var fetchers, sweeps sync.WaitGroup
	for w := 0; w < workers; w++ {
		fetchers.Add(1)
		go func(seed int64) {
			defer fetchers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				pp, err := bp.FetchPage(f, PageID(rng.Intn(npages)))
				if err != nil {
					if errors.Is(err, ErrPoolExhausted) {
						continue
					}
					errCh <- err
					return
				}
				pp.Unpin(rng.Intn(4) == 0)
			}
		}(int64(w))
	}
	for s := 0; s < sweepers; s++ {
		sweeps.Add(1)
		go func() {
			defer sweeps.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = bp.Reset() // fails while a worker holds a pin; that is expected
				_ = bp.Stats()
				_ = bp.Pinned()
				if err := bp.Flush(); err != nil {
					errCh <- err
					return
				}
				bp.ResetStats()
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		fetchers.Wait()
		close(stop)
		sweeps.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("deadlock: fetches and shard sweeps did not finish within 20s")
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := bp.Pinned(); n != 0 {
		t.Errorf("Pinned() = %d after all workers released", n)
	}
}

// TestBufferPoolPinnedNeverEvicted pins one page in every shard, churns far
// more pages than the pool holds to force eviction sweeps through every
// shard, and verifies the pinned frames were never victimized: their content
// is intact and refetching them is a hit, not a disk read.
func TestBufferPoolPinnedNeverEvicted(t *testing.T) {
	d := NewDiskManager(testModel())
	bp := NewBufferPool(d, 64)
	f := d.CreateFile()

	// Hold a pin in every shard (the first page the shard receives).
	pinned := make(map[*poolShard]*PinnedPage)
	var pids []PageID
	for pid := PageID(0); len(pinned) < bp.Shards(); pid++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		s := bp.shardFor(frameKey{f, pp.ID})
		if _, dup := pinned[s]; dup {
			pp.Unpin(true)
			continue
		}
		pp.Page.InsertCell([]byte(fmt.Sprintf("pinned-%d", pp.ID)))
		pinned[s] = pp
		pids = append(pids, pp.ID)
	}

	// Churn: allocate several pool-fulls of pages so every shard evicts.
	for i := 0; i < 4*bp.Capacity(); i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(true)
	}
	if bp.Stats().Evictions == 0 {
		t.Fatal("churn caused no evictions")
	}

	for _, pp := range pinned {
		if want := fmt.Sprintf("pinned-%d", pp.ID); string(pp.Page.Cell(0)) != want {
			t.Errorf("pinned page %d content = %q, want %q", pp.ID, pp.Page.Cell(0), want)
		}
		pp.Unpin(true)
	}
	d.ResetStats()
	before := bp.Stats()
	for _, pid := range pids {
		pp, err := bp.FetchPage(f, pid)
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(false)
	}
	if got := bp.Stats().Sub(before); got.Hits != int64(len(pids)) {
		t.Errorf("refetch of %d pinned pages: %d hits (pinned page was evicted)", len(pids), got.Hits)
	}
	if reads := d.Stats().PhysicalReads; reads != 0 {
		t.Errorf("refetch of pinned pages hit disk %d times", reads)
	}
}

// TestBufferPoolStatsMerge checks that the merged PoolStats equal the sum of
// the per-shard counters plus the pool-level atomics.
func TestBufferPoolStatsMerge(t *testing.T) {
	d := NewDiskManager(testModel())
	bp := NewBufferPool(d, 16)
	f := d.CreateFile()
	for i := 0; i < 48; i++ { // 3 pool-fulls: guaranteed evictions
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(true)
	}
	for i := 0; i < 10; i++ { // refetch the tail: all hits
		pp, err := bp.FetchPage(f, PageID(40+i%8))
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(false)
	}

	st := bp.Stats()
	var shardEvictions int64
	for _, s := range bp.shards {
		s.mu.Lock()
		shardEvictions += s.evictions
		s.mu.Unlock()
	}
	if st.Evictions != shardEvictions {
		t.Errorf("Stats().Evictions = %d, sum of shards = %d", st.Evictions, shardEvictions)
	}
	if st.LogicalReads != bp.logicalReads.Load() || st.Hits != bp.hits.Load() {
		t.Errorf("Stats() = %+v, atomics = %d/%d", st, bp.logicalReads.Load(), bp.hits.Load())
	}
	if st.LogicalReads != 10 {
		t.Errorf("LogicalReads = %d, want 10 (NewPage does not count as a read)", st.LogicalReads)
	}

	bp.ResetStats()
	if got := bp.Stats(); got != (PoolStats{}) {
		t.Errorf("Stats after ResetStats = %+v", got)
	}
}
