package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPoolExhausted is returned when a page must be brought in but every
// eligible frame is pinned. It is a typed, recoverable condition: once
// callers unpin, the pool serves requests again.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted (all frames pinned)")

// PoolStats accumulates buffer-pool counters. LogicalReads counts every page
// request; Hits counts those served from memory.
type PoolStats struct {
	LogicalReads int64
	Hits         int64
	Evictions    int64
	// Waits counts fetches that found their shard exhausted and blocked for
	// a frame; WaitTime is the total time spent blocked. Merged across
	// shards on read.
	Waits    int64
	WaitTime time.Duration
}

// Sub returns s - o.
func (s PoolStats) Sub(o PoolStats) PoolStats {
	return PoolStats{
		LogicalReads: s.LogicalReads - o.LogicalReads,
		Hits:         s.Hits - o.Hits,
		Evictions:    s.Evictions - o.Evictions,
		Waits:        s.Waits - o.Waits,
		WaitTime:     s.WaitTime - o.WaitTime,
	}
}

// HitRatio returns Hits/LogicalReads, or 0 when the window saw no logical
// reads at all (a query cancelled before its first fetch), rather than NaN.
func (s PoolStats) HitRatio() float64 {
	if s.LogicalReads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.LogicalReads)
}

type frameKey struct {
	file FileID
	page PageID
}

// hash mixes the key into a shard selector (splitmix64 finalizer, so nearby
// page ids of one file scatter across shards instead of convoying).
func (k frameKey) hash() uint64 {
	x := uint64(k.file)<<32 | uint64(uint32(k.page))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// frame is one resident page. ref is the CLOCK reference bit: set on every
// pin, cleared as the hand sweeps past; a frame is evicted only when the
// hand finds it unpinned with ref already cleared (second chance).
//
// The frame owns the handle every pin of its page returns: page and pp are
// rebuilt when the frame takes a key and stay fixed while it is pinned, so
// pinning allocates nothing and every holder of a pin shares one handle.
type frame struct {
	shard *poolShard
	key   frameKey
	buf   []byte
	dirty bool
	pins  int
	ref   bool
	page  Page
	pp    PinnedPage
}

// poolShard is one independently locked slice of the pool: a frame map, a
// CLOCK ring, and the shard-local eviction counter. A page's shard is fixed
// by its frameKey hash, so no operation ever takes two shard locks.
type poolShard struct {
	mu        sync.Mutex
	capacity  int
	frames    map[frameKey]*frame
	ring      []*frame // CLOCK ring; grows up to capacity, slots reused
	hand      int
	free      []*frame // frames whose read failed; reused before growing
	spare     []*frame // frames Reset dropped, page buffers kept; the ring regrows from them
	evictions int64

	// cond wakes fetchers blocked on an exhausted shard; it is signalled
	// whenever a frame's pin count drops to zero or a frame is freed.
	cond     *sync.Cond
	waits    int64
	waitTime time.Duration
}

// maxPoolShards caps the shard count; beyond ~16 shards the mutexes stop
// being the bottleneck and the extra rings just fragment capacity.
const maxPoolShards = 16

// minShardPages is the smallest useful shard: a B+tree descent plus a scan
// pin must fit with headroom, mirroring the old whole-pool minimum of 8.
const minShardPages = 8

// BufferPool caches pages above the DiskManager. It is sharded by frameKey
// hash — each shard has its own mutex, frame table, and CLOCK replacement
// ring — so concurrent queries on different pages proceed without queueing
// on one pool-wide lock. Unpinned pages are eviction candidates; dirty pages
// are written back on eviction or Flush. All methods are safe for concurrent
// use.
type BufferPool struct {
	disk     *DiskManager
	capacity int
	shardBit uint64 // len(shards)-1; shard count is a power of two
	shards   []*poolShard

	// Hit/miss counters are pool-wide atomics: FetchPage bumps them outside
	// any shard lock, and Stats() reads them without stopping the world.
	logicalReads atomic.Int64
	hits         atomic.Int64

	// waitBudget (nanoseconds) bounds how long a fetch may block waiting for
	// a frame when its shard is exhausted. Zero keeps the historical
	// fail-fast behavior: exhaustion errors immediately.
	waitBudget atomic.Int64

	// waitObs, when set, is invoked with the duration of every completed
	// frame wait — the engine feeds these into its pool-wait histogram.
	// The callback runs on the rare blocked path only (never on a cache
	// hit or a free-frame miss), while the shard lock is held, so it must
	// be fast and must not re-enter the pool.
	waitObs atomic.Pointer[func(time.Duration)]
}

// SetWaitBudget bounds how long FetchPage blocks for a free frame when every
// frame of the target shard is pinned, converting pool exhaustion from an
// instant error into a bounded wait: once a concurrent query unpins, the
// blocked fetch proceeds. Zero (the default) fails fast. The budget applies
// per fetch; waits show up as Waits/WaitTime in Stats.
func (bp *BufferPool) SetWaitBudget(d time.Duration) {
	if d < 0 {
		d = 0
	}
	bp.waitBudget.Store(int64(d))
}

// WaitBudget returns the current frame-wait budget.
func (bp *BufferPool) WaitBudget() time.Duration {
	return time.Duration(bp.waitBudget.Load())
}

// SetWaitObserver installs fn to be called with each completed frame
// wait's duration (nil uninstalls). The observer runs under the waiting
// shard's lock on the already-blocked slow path: keep it to a few atomic
// operations and never call back into the pool from it.
func (bp *BufferPool) SetWaitObserver(fn func(time.Duration)) {
	if fn == nil {
		bp.waitObs.Store(nil)
		return
	}
	bp.waitObs.Store(&fn)
}

// NewBufferPool creates a pool holding up to capacity pages, sharded as wide
// as the capacity allows (each shard keeps at least minShardPages frames, up
// to maxPoolShards shards). A capacity of at least a few dozen pages is
// needed for B+tree traversals; NewBufferPool panics below 8 to catch
// misconfiguration early.
func NewBufferPool(disk *DiskManager, capacity int) *BufferPool {
	if capacity < minShardPages {
		panic(fmt.Sprintf("storage: buffer pool capacity %d too small", capacity))
	}
	n := 1
	for n*2 <= maxPoolShards && capacity/(n*2) >= minShardPages {
		n *= 2
	}
	bp := &BufferPool{
		disk:     disk,
		capacity: capacity,
		shardBit: uint64(n - 1),
		shards:   make([]*poolShard, n),
	}
	for i := range bp.shards {
		// Spread capacity across shards; earlier shards absorb the remainder
		// so the per-shard capacities sum exactly to the configured total.
		c := capacity / n
		if i < capacity%n {
			c++
		}
		sh := &poolShard{
			capacity: c,
			frames:   make(map[frameKey]*frame, c),
		}
		sh.cond = sync.NewCond(&sh.mu)
		bp.shards[i] = sh
	}
	return bp
}

// shardFor returns the shard owning key.
func (bp *BufferPool) shardFor(key frameKey) *poolShard {
	return bp.shards[key.hash()&bp.shardBit]
}

// Disk returns the underlying disk manager.
func (bp *BufferPool) Disk() *DiskManager { return bp.disk }

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Shards returns the number of independently locked pool shards.
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// PinnedPage is a pinned page handle. Callers must Unpin exactly once, and
// must not use the handle after: it belongs to the pool's frame, which
// reuses it for the next page it holds.
type PinnedPage struct {
	fr   *frame
	Page *Page
	File FileID
	ID   PageID
}

// Unpin releases the pin. If dirty is true the page will be written back
// before eviction.
func (pp *PinnedPage) Unpin(dirty bool) {
	pp.fr.shard.unpin(pp.fr, dirty)
}

// FetchPage pins page pid of the file, reading it from disk on a miss. When
// the target shard is exhausted (every frame pinned) and a wait budget is
// configured, the fetch blocks up to that budget for a concurrent unpin
// instead of failing immediately.
func (bp *BufferPool) FetchPage(file FileID, pid PageID) (*PinnedPage, error) {
	bp.logicalReads.Add(1)
	key := frameKey{file, pid}
	s := bp.shardFor(key)
	s.mu.Lock()
	fr, resident, err := s.acquireFrameLocked(bp, key)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if resident {
		fr.pins++
		fr.ref = true
		s.mu.Unlock()
		bp.hits.Add(1)
		return &fr.pp, nil
	}
	if err := bp.disk.ReadPage(file, pid, fr.buf); err != nil {
		s.releaseFrameLocked(fr)
		s.mu.Unlock()
		return nil, err
	}
	fr.pins++
	fr.ref = true
	s.mu.Unlock()
	return &fr.pp, nil
}

// acquireFrameLocked returns the resident frame for key (resident=true) or a
// fresh frame registered for key (resident=false). On shard exhaustion it
// waits, up to the pool's wait budget, for a pin to drop or a frame to free;
// the deadline is enforced by a timer broadcast so an expired waiter wakes
// even if no unpin ever arrives. Caller holds s.mu throughout (Wait releases
// it while blocked).
func (s *poolShard) acquireFrameLocked(bp *BufferPool, key frameKey) (*frame, bool, error) {
	if fr, ok := s.frames[key]; ok {
		return fr, true, nil
	}
	fr, err := s.allocFrameLocked(bp.disk, key)
	if err == nil || !errors.Is(err, ErrPoolExhausted) {
		return fr, false, err
	}
	budget := time.Duration(bp.waitBudget.Load())
	if budget <= 0 {
		return nil, false, err
	}
	s.waits++
	start := time.Now()
	timer := time.AfterFunc(budget, s.cond.Broadcast)
	defer timer.Stop()
	defer func() {
		d := time.Since(start)
		s.waitTime += d
		if fn := bp.waitObs.Load(); fn != nil {
			(*fn)(d)
		}
	}()
	for {
		s.cond.Wait()
		// A concurrent fetch may have brought the page in while we slept.
		if fr, ok := s.frames[key]; ok {
			return fr, true, nil
		}
		fr, err = s.allocFrameLocked(bp.disk, key)
		if err == nil || !errors.Is(err, ErrPoolExhausted) {
			return fr, false, err
		}
		if time.Since(start) >= budget {
			return nil, false, fmt.Errorf("storage: frame wait timed out after %v: %w", budget, err)
		}
	}
}

// NewPage allocates a fresh page in the file, formats it with the given type,
// and returns it pinned and dirty.
func (bp *BufferPool) NewPage(file FileID, typ byte) (*PinnedPage, error) {
	pid, err := bp.disk.AllocPage(file)
	if err != nil {
		return nil, err
	}
	key := frameKey{file, pid}
	s := bp.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := s.allocFrameLocked(bp.disk, key)
	if err != nil {
		return nil, err
	}
	InitPage(fr.buf, typ)
	fr.dirty = true
	fr.pins++
	fr.ref = true
	return &fr.pp, nil
}

// allocFrameLocked finds a frame for key: a previously released frame, a new
// one while the shard is below capacity, or the next CLOCK victim. Caller
// holds s.mu; the returned frame is registered in the shard map with zero
// pins and the ref bit clear.
func (s *poolShard) allocFrameLocked(disk *DiskManager, key frameKey) (*frame, error) {
	var fr *frame
	switch {
	case len(s.free) > 0:
		fr = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	case len(s.ring) < s.capacity:
		// Every caller overwrites the whole buffer (a disk read or
		// InitPage), so a spare one needs no clearing.
		if n := len(s.spare); n > 0 {
			fr = s.spare[n-1]
			s.spare = s.spare[:n-1]
		} else {
			fr = &frame{shard: s, buf: make([]byte, PageSize)}
		}
		s.ring = append(s.ring, fr)
	default:
		victim, err := s.evictLocked(disk)
		if err != nil {
			return nil, err
		}
		fr = victim
	}
	fr.key = key
	fr.dirty = false
	fr.ref = false
	fr.page = Page{buf: fr.buf}
	fr.pp = PinnedPage{fr: fr, Page: &fr.page, File: key.file, ID: key.page}
	s.frames[key] = fr
	return fr, nil
}

// releaseFrameLocked drops a frame whose fill failed (read error): the page
// never became visible, so the frame goes back on the free list.
func (s *poolShard) releaseFrameLocked(fr *frame) {
	delete(s.frames, fr.key)
	fr.dirty = false
	fr.ref = false
	s.free = append(s.free, fr)
	s.cond.Signal()
}

// evictLocked runs the CLOCK hand until it finds an unpinned frame with a
// clear reference bit, writing the victim back if dirty and returning its
// frame for reuse (the page buffer is recycled, so steady-state misses do
// not allocate). Two full sweeps without a victim means every frame is
// pinned: ErrPoolExhausted.
func (s *poolShard) evictLocked(disk *DiskManager) (*frame, error) {
	for i := 0; i < 2*len(s.ring); i++ {
		fr := s.ring[s.hand]
		s.hand++
		if s.hand == len(s.ring) {
			s.hand = 0
		}
		if fr.pins > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false // second chance
			continue
		}
		if fr.dirty {
			if err := disk.WritePage(fr.key.file, fr.key.page, fr.buf); err != nil {
				return nil, err
			}
		}
		delete(s.frames, fr.key)
		s.evictions++
		return fr, nil
	}
	return nil, fmt.Errorf("storage: all %d pages of shard pinned: %w", s.capacity, ErrPoolExhausted)
}

func (s *poolShard) unpin(fr *frame, dirty bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fr.pins <= 0 {
		panic("storage: unpin of unpinned page")
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
	if fr.pins == 0 {
		// A fetcher may be blocked on shard exhaustion; this frame is now an
		// eviction candidate.
		s.cond.Signal()
	}
}

// Flush writes back all dirty pages (pinned or not) without evicting them.
func (bp *BufferPool) Flush() error {
	for _, s := range bp.shards {
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr.dirty {
				if err := bp.disk.WritePage(fr.key.file, fr.key.page, fr.buf); err != nil {
					s.mu.Unlock()
					return err
				}
				fr.dirty = false
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Reset flushes dirty pages and drops every cached page, simulating a cold
// cache (the paper measures all executions cold). It returns an error if any
// page is still pinned. All shard locks are held for the duration, so the
// reset is atomic with respect to concurrent fetches. The dropped frames keep
// their page buffers on the shard's spare list and the frame map keeps its
// buckets, so neither the reset nor refilling the pool after it allocates; the
// ring regrows in the same order as in a new pool, so what is read and evicted
// afterwards does not change.
func (bp *BufferPool) Reset() error {
	for _, s := range bp.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range bp.shards {
			s.mu.Unlock()
		}
	}()
	for _, s := range bp.shards {
		for _, fr := range s.frames {
			if fr.pins > 0 {
				return fmt.Errorf("storage: Reset with pinned page %v", fr.key)
			}
		}
	}
	for _, s := range bp.shards {
		for _, fr := range s.frames {
			if fr.dirty {
				if err := bp.disk.WritePage(fr.key.file, fr.key.page, fr.buf); err != nil {
					return err
				}
			}
		}
		clear(s.frames)
		s.spare = append(s.spare, s.ring...)
		s.ring = s.ring[:0]
		s.free = s.free[:0]
		s.hand = 0
	}
	return nil
}

// Pinned returns the number of currently pinned frames. A query that has
// fully finished — successfully or not — must leave this at zero; the
// robustness tests assert it after every fault scenario.
func (bp *BufferPool) Pinned() int {
	n := 0
	for _, s := range bp.shards {
		s.mu.Lock()
		for _, fr := range s.frames {
			if fr.pins > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the pool counters: the atomic hit/miss
// counters plus the shard-local eviction counts merged on read.
func (bp *BufferPool) Stats() PoolStats {
	st := PoolStats{
		LogicalReads: bp.logicalReads.Load(),
		Hits:         bp.hits.Load(),
	}
	for _, s := range bp.shards {
		s.mu.Lock()
		st.Evictions += s.evictions
		st.Waits += s.waits
		st.WaitTime += s.waitTime
		s.mu.Unlock()
	}
	return st
}

// ResetStats zeroes the pool counters.
func (bp *BufferPool) ResetStats() {
	bp.logicalReads.Store(0)
	bp.hits.Store(0)
	for _, s := range bp.shards {
		s.mu.Lock()
		s.evictions = 0
		s.waits = 0
		s.waitTime = 0
		s.mu.Unlock()
	}
}
