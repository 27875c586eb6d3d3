package pagefeedback

import (
	"sync"
	"time"

	"pagefeedback/internal/opt"
)

// defaultSlowLogSize bounds the slow-query log; older entries are evicted.
const defaultSlowLogSize = 32

// SlowQuery is one captured slow query: the identifying text, its timing,
// and the full diagnostic payload — the annotated EXPLAIN ANALYZE tree and
// the raw span trace. Records are snapshots; mutating them does not affect
// the log.
type SlowQuery struct {
	// Query is the SQL text when the query came through the parser, or the
	// plan's root label for direct plan executions.
	Query string
	// At is when the query finished.
	At time.Time
	// WallTime and SimulatedTime mirror the Result fields.
	WallTime      time.Duration
	SimulatedTime time.Duration
	// Analyze is the rendered EXPLAIN ANALYZE tree for the run.
	Analyze string
	// Trace is the raw span listing (trace.Trace.Render).
	Trace string
}

// slowLog is a bounded FIFO of slow-query results. Capture stores the
// *Result only; rendering happens at read time, after the query path has
// finished enriching the result (query text, optimizer estimates).
type slowLog struct {
	mu      sync.Mutex
	entries []slowEntry
}

type slowEntry struct {
	res *Result
	at  time.Time
}

// note appends a slow query, evicting the oldest past capacity.
func (l *slowLog) note(res *Result, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, slowEntry{res: res, at: at})
	if len(l.entries) > defaultSlowLogSize {
		// Shift in place; the log is small and eviction is one slot at a
		// time.
		copy(l.entries, l.entries[1:])
		l.entries = l.entries[:defaultSlowLogSize]
	}
}

// SlowQueries renders the captured slow queries, oldest first. Empty until
// Config.SlowQueryThreshold arms the log and a query exceeds it.
func (e *Engine) SlowQueries() []SlowQuery {
	e.slow.mu.Lock()
	entries := make([]slowEntry, len(e.slow.entries))
	copy(entries, e.slow.entries)
	e.slow.mu.Unlock()

	out := make([]SlowQuery, 0, len(entries))
	for _, ent := range entries {
		res := ent.res
		label := res.Plan.Label()
		if res.Query != nil {
			label = queryLabel(res.Query)
		}
		sq := SlowQuery{
			Query:         label,
			At:            ent.at,
			WallTime:      res.WallTime,
			SimulatedTime: res.SimulatedTime,
			Analyze:       FormatAnalyze(res, AnalyzeOptions{}),
		}
		if res.Trace != nil {
			sq.Trace = res.Trace.Render()
		}
		out = append(out, sq)
	}
	return out
}

// queryLabel renders a compact identifying description of a parsed query
// (the parser does not retain the original SQL text).
func queryLabel(q *opt.Query) string {
	s := q.Table
	if len(q.Pred.Atoms) > 0 {
		s += ": " + q.Pred.String()
	}
	if q.IsJoin() {
		s += " JOIN " + q.Table2
		if len(q.Pred2.Atoms) > 0 {
			s += ": " + q.Pred2.String()
		}
	}
	return s
}
