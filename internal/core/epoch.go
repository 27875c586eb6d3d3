package core

import (
	"strings"
	"sync"
	"sync/atomic"
)

// EpochTracker is the invalidation clock of the plan cache, living next to
// FeedbackCache because both record the same events: every mutation of the
// optimizer's feedback state (ApplyFeedback, ImportFeedback, Analyze,
// InvalidateFeedback, DDL) bumps the affected table's epoch — or the global
// epoch for whole-optimizer mutations like ClearInjections. A cached plan
// carries the epochs it was built under; any mismatch at lookup time means
// the statistics the plan was costed with are gone, so the entry is
// re-optimized rather than served.
//
// Counters are atomic.Int64 wrappers (a plain access does not compile);
// the map itself is guarded by an RWMutex that is only write-locked the
// first time a table is seen.
type EpochTracker struct {
	global atomic.Int64
	mu     sync.RWMutex
	tables map[string]*atomic.Int64
}

// NewEpochTracker returns an empty tracker: every table starts at epoch 0.
func NewEpochTracker() *EpochTracker {
	return &EpochTracker{tables: make(map[string]*atomic.Int64)}
}

// Bump advances the named table's epoch. Table names are case-insensitive.
func (t *EpochTracker) Bump(table string) {
	key := strings.ToLower(table)
	t.mu.RLock()
	c := t.tables[key]
	t.mu.RUnlock()
	if c == nil {
		t.mu.Lock()
		c = t.tables[key]
		if c == nil {
			c = new(atomic.Int64)
			t.tables[key] = c
		}
		t.mu.Unlock()
	}
	c.Add(1)
}

// BumpAll advances the global epoch, invalidating every cached plan at once.
func (t *EpochTracker) BumpAll() {
	t.global.Add(1)
}

// Table returns the named table's current epoch (0 if never bumped).
func (t *EpochTracker) Table(table string) int64 {
	t.mu.RLock()
	c := t.tables[strings.ToLower(table)]
	t.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Global returns the current global epoch.
func (t *EpochTracker) Global() int64 {
	return t.global.Load()
}
