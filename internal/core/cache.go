package core

import (
	"sort"
	"strings"
	"sync"

	"pagefeedback/internal/expr"
)

// FeedbackEntry is one fed-back observation: for a (table, predicate
// expression), the observed cardinality and distinct page count, plus how
// the DPC was obtained.
type FeedbackEntry struct {
	Table       string
	Pred        expr.Conjunction
	Cardinality int64
	DPC         int64
	Mechanism   string // "exact-scan", "linear-counting", "dpsample", "bitvector+dpsample", ...
	Exact       bool   // true when the mechanism yields the exact count
	// TableVersion is the table's modification counter at observation
	// time; a mismatch with the current counter marks the entry stale.
	TableVersion int64
}

// FeedbackCache stores (expression, cardinality, distinct page count)
// triples keyed by the canonical form of the predicate — the augmentation
// of LEO-style feedback infrastructure described in §II-C. It lets future
// optimizations of queries with the same predicate reuse the observed DPC
// instead of the analytical estimate. Safe for concurrent use.
type FeedbackCache struct {
	mu      sync.RWMutex
	entries map[string]FeedbackEntry
}

// NewFeedbackCache creates an empty cache.
func NewFeedbackCache() *FeedbackCache {
	return &FeedbackCache{entries: make(map[string]FeedbackEntry)}
}

// Key computes the cache key for a predicate on a table. The key is
// insensitive to conjunct order.
func Key(table string, pred expr.Conjunction) string {
	return pred.CanonicalKey(table)
}

// Store records an observation of (e.Table, e.Pred) and returns the entry
// the cache keeps for it. A new observation replaces the old one, except
// that an estimate never replaces an exact count of the same table version
// (the exact scan count dominates a sampled estimate); an exact count of an
// older version describes data that is gone and loses to anything newer.
func (fc *FeedbackCache) Store(e FeedbackEntry) FeedbackEntry {
	k := Key(e.Table, e.Pred)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if old, ok := fc.entries[k]; ok && old.Exact && !e.Exact && old.TableVersion == e.TableVersion {
		return old
	}
	fc.entries[k] = e
	return e
}

// Lookup returns the stored observation for (table, pred) if it was taken
// at the given table version; an entry observed against other data is
// stale and not returned.
func (fc *FeedbackCache) Lookup(table string, pred expr.Conjunction, version int64) (FeedbackEntry, bool) {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	e, ok := fc.entries[Key(table, pred)]
	if !ok || e.TableVersion != version {
		return FeedbackEntry{}, false
	}
	return e, true
}

// DropTable removes every observation for the table (case-insensitive),
// returning how many were dropped — the invalidation hook for when the
// table's data changes and its page counts go stale.
func (fc *FeedbackCache) DropTable(table string) int {
	prefix := strings.ToLower(table) + "|"
	fc.mu.Lock()
	defer fc.mu.Unlock()
	n := 0
	for k := range fc.entries {
		if strings.HasPrefix(k, prefix) {
			delete(fc.entries, k)
			n++
		}
	}
	return n
}

// Len returns the number of cached observations.
func (fc *FeedbackCache) Len() int {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	return len(fc.entries)
}

// Entries returns all observations in cache-key order: by table, then by
// the predicate's canonical (conjunct-order-insensitive) rendering.
func (fc *FeedbackCache) Entries() []FeedbackEntry {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	keys := make([]string, 0, len(fc.entries))
	for k := range fc.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]FeedbackEntry, len(keys))
	for i, k := range keys {
		out[i] = fc.entries[k]
	}
	return out
}
