package exec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"pagefeedback/internal/tuple"
)

// ErrMemBudget is the underlying cause when a query exceeds its per-query
// memory budget. The engine boundary classifies it into a typed *QueryError,
// so one oversized hash build or sort aborts that query alone instead of
// pressuring the whole process.
var ErrMemBudget = errors.New("exec: per-query memory budget exceeded")

// MemTracker accounts the bytes materialized by one query's allocating
// operators — hash-join build tables, sort buffers, group-aggregate state,
// and the row arenas a parallel scan ships when no aggregate folds in its
// workers: at most two per worker, charged when made and reused once the
// consumer hands them back (TestParallelMemPeakBound). It is shared by all
// workers of a parallel query (child contexts carry the same tracker), so
// accounting is atomic.
//
// A nil *MemTracker is valid and means "unlimited": Grow on nil is a no-op
// returning nil, so operators charge unconditionally without branching on
// configuration.
type MemTracker struct {
	limit int64
	used  atomic.Int64
}

// NewMemTracker creates a tracker enforcing the given byte limit. A limit of
// zero or less means track usage but never fail.
func NewMemTracker(limit int64) *MemTracker {
	return &MemTracker{limit: limit}
}

// Grow charges n bytes against the budget. It fails — without charging —
// once the budget would be exceeded, wrapping ErrMemBudget.
func (t *MemTracker) Grow(n int64) error {
	if t == nil || n <= 0 {
		return nil
	}
	used := t.used.Add(n)
	if t.limit > 0 && used > t.limit {
		t.used.Add(-n)
		return fmt.Errorf("exec: query needs %d bytes, budget is %d: %w", used, t.limit, ErrMemBudget)
	}
	return nil
}

// Used returns the bytes currently charged. Operators do not release on
// Close — materialized state lives until the query ends — so Used is also
// the query's high-water mark.
func (t *MemTracker) Used() int64 {
	if t == nil {
		return 0
	}
	return t.used.Load()
}

// Limit returns the configured budget (0 = unlimited).
func (t *MemTracker) Limit() int64 {
	if t == nil {
		return 0
	}
	return t.limit
}

// valueMemSize approximates the in-memory footprint of one tuple.Value:
// the struct header plus the string payload, if any.
const valueMemSize = 32

// mapEntryOverhead approximates the bookkeeping cost of one map entry
// (bucket slot, key header, pointer).
const mapEntryOverhead = 48

// rowMemSize approximates the retained footprint of a materialized row.
func rowMemSize(row tuple.Row) int64 {
	n := int64(len(row)) * valueMemSize
	for _, v := range row {
		n += int64(len(v.Str))
	}
	return n
}
