package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedFault is returned by reads after FailReadsAfter triggers.
var ErrInjectedFault = errors.New("storage: injected read fault")

// ErrInjectedWriteFault is returned by writes after FailWritesAfter triggers.
var ErrInjectedWriteFault = errors.New("storage: injected write fault")

// ErrChecksum is returned when a page read fails checksum verification — the
// stored bytes do not match the checksum recorded at the last complete write,
// the signature of a torn (partially persisted) page. Torn pages are
// permanent media damage: reads are NOT retried.
var ErrChecksum = errors.New("storage: page checksum mismatch (torn page)")

// ErrTransientFault is the underlying cause of a read that kept failing
// transiently after the retry budget was exhausted. Single transient faults
// are absorbed by the disk manager's bounded retry and never surface.
var ErrTransientFault = errors.New("storage: transient read fault")

// maxReadRetries bounds how many times a transiently failing page read is
// retried before the fault is reported as hard.
const maxReadRetries = 3

// IOModel holds the simulated device timing constants. The same constants
// drive the optimizer's cost model (internal/opt), so that a corrected
// distinct page count changes the plan choice and the simulated execution
// time coherently — mirroring the paper's methodology of measuring real
// executions on a cold cache.
type IOModel struct {
	// RandomRead is the simulated latency of a random 8 KB page read.
	RandomRead time.Duration
	// SeqRead is the simulated latency of a sequential 8 KB page read
	// (the next page of the same file after the previous read).
	SeqRead time.Duration
}

// DefaultIOModel approximates a 2007-era enterprise disk: ~4 ms random seek
// and ~80 MB/s sequential bandwidth (0.1 ms per 8 KB page).
func DefaultIOModel() IOModel {
	return IOModel{RandomRead: 4 * time.Millisecond, SeqRead: 100 * time.Microsecond}
}

// IOStats accumulates device-level counters.
type IOStats struct {
	PhysicalReads   int64         // total pages read from "disk"
	SequentialReads int64         // reads that continued the previous page
	RandomReads     int64         // reads that required a seek
	PagesWritten    int64         // pages written
	ReadRetries     int64         // re-issued reads after transient faults
	ChecksumErrors  int64         // reads rejected by checksum verification
	SimulatedIO     time.Duration // total simulated device time
}

// Sub returns s - o, for measuring a window between two snapshots.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		PhysicalReads:   s.PhysicalReads - o.PhysicalReads,
		SequentialReads: s.SequentialReads - o.SequentialReads,
		RandomReads:     s.RandomReads - o.RandomReads,
		PagesWritten:    s.PagesWritten - o.PagesWritten,
		ReadRetries:     s.ReadRetries - o.ReadRetries,
		ChecksumErrors:  s.ChecksumErrors - o.ChecksumErrors,
		SimulatedIO:     s.SimulatedIO - o.SimulatedIO,
	}
}

// FileID identifies one file (heap or index) managed by a DiskManager.
type FileID uint32

// crcTable is the Castagnoli polynomial (hardware-accelerated on most CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DiskManager is an in-memory page store standing in for the I/O subsystem.
// It hands out files, serves page reads/writes, and charges simulated time
// per the IOModel, classifying each read as sequential or random based on
// whether it immediately follows the previously read page of the same file.
//
// Every complete write records a page checksum; reads verify it, so a torn
// page (injected with CorruptPage, or any out-of-band mutation of the stored
// bytes) surfaces as ErrChecksum instead of silently decoding garbage.
// Transient read faults are retried up to maxReadRetries times with a
// simulated backoff before being reported; retries show up in IOStats.
//
// All methods are safe for concurrent use.
type DiskManager struct {
	mu     sync.Mutex
	model  IOModel
	files  map[FileID]*fileData
	nextID FileID
	stats  IOStats
	// failAfter injects hard read faults for tests: when armed, it counts
	// down per read and every read after it reaches zero fails.
	failAfter int64
	failArmed bool
	// failWriteAfter is the write-side analog.
	failWriteAfter int64
	failWriteArmed bool
	// transient is the number of upcoming read attempts that fail
	// transiently (each attempt, including retries, consumes one).
	transient int64
	// transientDelay defers the transient burst: that many ReadPage calls
	// succeed before the burst starts (InjectTransientFaultsAt).
	transientDelay int64
	// backoff is the retry policy for transient read faults; retrySeq is the
	// monotone sequence feeding its deterministic jitter.
	backoff  BackoffPolicy
	retrySeq uint64

	// readSeq numbers ReadPage calls when a read hook is installed; the hook
	// is invoked outside the lock with the 1-based sequence number before the
	// read is served. The chaos harness uses it to cancel or expire a query
	// context at an exact read position, deterministically.
	readSeq  atomic.Int64
	readHook atomic.Value // readHookBox
}

type readHookBox struct{ fn func(seq int64) }

// SetReadHook installs fn to be called before every ReadPage with the
// 1-based sequence number of the call, and resets the sequence counter.
// Pass nil to remove the hook. The hook runs outside the manager's lock, so
// it may call back into the engine (e.g. cancel a context) without deadlock.
func (d *DiskManager) SetReadHook(fn func(seq int64)) {
	d.readSeq.Store(0)
	d.readHook.Store(readHookBox{fn})
}

// FailReadsAfter arms fault injection: the next n reads succeed, every
// read after that returns ErrInjectedFault. Pass a negative n to disarm.
// Intended for tests exercising error propagation.
func (d *DiskManager) FailReadsAfter(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failAfter = n
	d.failArmed = n >= 0
}

// FailWritesAfter arms write-fault injection: the next n writes succeed,
// every write after that returns ErrInjectedWriteFault. Pass a negative n to
// disarm.
func (d *DiskManager) FailWritesAfter(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failWriteAfter = n
	d.failWriteArmed = n >= 0
}

// InjectTransientFaults makes the next n read attempts fail transiently.
// The disk manager itself retries such reads (up to maxReadRetries per
// read), so n <= maxReadRetries is absorbed invisibly — apart from
// IOStats.ReadRetries and the simulated backoff time — while a longer burst
// surfaces as an error wrapping ErrTransientFault.
func (d *DiskManager) InjectTransientFaults(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 {
		n = 0
	}
	d.transient = n
	d.transientDelay = 0
	d.retrySeq = 0
}

// InjectTransientFaultsAt positions a transient burst: the next `after`
// ReadPage calls succeed, then the following n read attempts fail
// transiently. The chaos harness sweeps `after` across a query's read
// sequence to probe every retry path deterministically.
func (d *DiskManager) InjectTransientFaultsAt(after, n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if n < 0 {
		n = 0
	}
	d.transientDelay = after
	d.transient = n
	// Restarting the jitter sequence makes an identical schedule reproduce
	// identical backoff delays — the determinism the chaos sweep relies on.
	d.retrySeq = 0
}

// CorruptPage simulates a torn write: the tail half of the stored page is
// overwritten with garbage while the recorded checksum still describes the
// complete page, so the next read of the page fails with ErrChecksum.
func (d *DiskManager) CorruptPage(id FileID, pid PageID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[id]
	if f == nil {
		return fmt.Errorf("storage: no file %d", id)
	}
	if int(pid) >= len(f.pages) {
		return fmt.Errorf("storage: file %d has no page %d", id, pid)
	}
	page := f.pages[pid]
	for i := PageSize / 2; i < PageSize; i++ {
		page[i] ^= 0xA5
	}
	return nil
}

type fileData struct {
	pages [][]byte
	// sums holds the CRC32-C of each page as of its last complete write.
	sums []uint32
	// lastRead tracks the most recently read page for the sequential-vs-
	// random classification. Tracking per file (rather than one global
	// head) models the read-ahead real devices and engines provide: a scan
	// stays sequential even when another operator's reads interleave with
	// it, as happens under an index nested loops join.
	lastRead PageID
	hasLast  bool
}

// NewDiskManager creates an empty disk with the given timing model and the
// default transient-fault backoff policy.
func NewDiskManager(model IOModel) *DiskManager {
	return &DiskManager{
		model:   model,
		files:   make(map[FileID]*fileData),
		backoff: DefaultBackoffPolicy(model),
	}
}

// Model returns the timing model.
func (d *DiskManager) Model() IOModel { return d.model }

// CreateFile allocates a new empty file and returns its ID.
func (d *DiskManager) CreateFile() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextID
	d.nextID++
	d.files[id] = &fileData{}
	return id
}

// NumPages returns the number of allocated pages in the file.
func (d *DiskManager) NumPages(id FileID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[id]
	if f == nil {
		return 0
	}
	return len(f.pages)
}

// zeroPageSum is the checksum of a freshly allocated (all-zero) page.
var zeroPageSum = crc32.Checksum(make([]byte, PageSize), crcTable)

// AllocPage appends a zeroed page to the file and returns its PageID.
// Allocation itself is not charged I/O time; the subsequent write is.
func (d *DiskManager) AllocPage(id FileID) (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[id]
	if f == nil {
		return InvalidPageID, fmt.Errorf("storage: no file %d", id)
	}
	pid := PageID(len(f.pages))
	f.pages = append(f.pages, make([]byte, PageSize))
	f.sums = append(f.sums, zeroPageSum)
	return pid, nil
}

// ReadPage copies page pid of the file into dst (PageSize bytes) and charges
// simulated time. Transient device faults are absorbed by up to
// maxReadRetries retries (each charged a random-read backoff); checksum
// mismatches and hard faults are returned immediately.
func (d *DiskManager) ReadPage(id FileID, pid PageID, dst []byte) error {
	if box, ok := d.readHook.Load().(readHookBox); ok && box.fn != nil {
		box.fn(d.readSeq.Add(1))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[id]
	if f == nil {
		return fmt.Errorf("storage: no file %d", id)
	}
	if int(pid) >= len(f.pages) {
		return fmt.Errorf("storage: file %d has no page %d", id, pid)
	}
	if d.failArmed {
		if d.failAfter <= 0 {
			return ErrInjectedFault
		}
		d.failAfter--
	}
	if d.transientDelay > 0 {
		d.transientDelay--
	} else {
		// First attempt plus bounded retries for transient faults, the
		// delays charged from the central backoff policy (the device has to
		// re-seek after an aborted transfer, then back off further under
		// repeated faults).
		attempts := 0
		for d.transient > 0 {
			d.transient--
			attempts++
			if attempts > d.backoff.MaxRetries {
				return fmt.Errorf("storage: file %d page %d failed after %d retries: %w",
					id, pid, d.backoff.MaxRetries, ErrTransientFault)
			}
			d.retrySeq++
			d.stats.ReadRetries++
			d.stats.SimulatedIO += d.backoff.Delay(attempts, d.retrySeq)
		}
	}
	if crc32.Checksum(f.pages[pid], crcTable) != f.sums[pid] {
		d.stats.ChecksumErrors++
		return fmt.Errorf("storage: file %d page %d: %w", id, pid, ErrChecksum)
	}
	copy(dst, f.pages[pid])
	d.stats.PhysicalReads++
	if f.hasLast && pid == f.lastRead+1 {
		d.stats.SequentialReads++
		d.stats.SimulatedIO += d.model.SeqRead
	} else {
		d.stats.RandomReads++
		d.stats.SimulatedIO += d.model.RandomRead
	}
	f.lastRead, f.hasLast = pid, true
	return nil
}

// WritePage copies src (PageSize bytes) into page pid of the file and records
// the page's checksum. Writes are charged sequential time; the experiments in
// this repo are read-dominated, matching the paper's read-only query
// workloads.
func (d *DiskManager) WritePage(id FileID, pid PageID, src []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[id]
	if f == nil {
		return fmt.Errorf("storage: no file %d", id)
	}
	if int(pid) >= len(f.pages) {
		return fmt.Errorf("storage: file %d has no page %d", id, pid)
	}
	if d.failWriteArmed {
		if d.failWriteAfter <= 0 {
			return fmt.Errorf("storage: file %d page %d: %w", id, pid, ErrInjectedWriteFault)
		}
		d.failWriteAfter--
	}
	copy(f.pages[pid], src)
	f.sums[pid] = crc32.Checksum(f.pages[pid], crcTable)
	d.stats.PagesWritten++
	d.stats.SimulatedIO += d.model.SeqRead
	return nil
}

// Stats returns a snapshot of the accumulated counters.
func (d *DiskManager) Stats() IOStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters (the head position is kept).
func (d *DiskManager) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = IOStats{}
}
