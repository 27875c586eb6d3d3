// Package trace records per-query span trees aligned with the operator
// tree. A Recorder is created per query execution; operators, parallel
// workers, and the engine emit fixed-size Span values into a preallocated
// lock-free buffer, and Finish freezes the buffer into a Trace for
// rendering, slow-query capture, or structural validation.
//
// The design goals, in order:
//
//  1. Zero cost when disabled. Every emission site guards on a nil
//     *Recorder, so the untraced path is a single pointer compare.
//  2. Alloc-free when enabled. Span holds no pointers and the buffer is
//     sized up front, so emitting a span never allocates; a full buffer
//     drops the newest span and counts it rather than growing. Buffers of
//     DefaultCapacity are pooled: Finish copies out the claimed spans and
//     recycles the buffer, so a query allocates only the spans it keeps.
//  3. Safe concurrent emission. Parallel-scan workers share the query's
//     recorder; slots are claimed with a single atomic add and never
//     reused within a query, so no two writers ever touch the same slot.
//
// Spans carry operator ids, not pointers: the engine aligns spans with the
// operator-stats tree (which carries the same ids) at render time, so the
// hot path never builds tree structure.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span.
type Kind uint8

const (
	// KindQuery is the root interval covering the whole execution,
	// admission wait included. Exactly one per trace.
	KindQuery Kind = iota
	// KindOperator is an operator's lifetime: Open entry through Close
	// return. Exactly one per operator.
	KindOperator
	// KindOpen and KindClose are the operator's setup and teardown
	// intervals, nested within its KindOperator span.
	KindOpen
	KindClose
	// KindNext summarizes the operator's batch-production phase: the
	// interval from its first NextBatch call to its last, with N the rows
	// produced, Total the time spent inside the operator's NextBatch across
	// all calls, and Calls the call count. One summary span —
	// not one span per call — keeps trace size proportional to the plan,
	// not the data.
	KindNext
	// KindPartition is one parallel worker's drain of one partition,
	// nested within the parallel operator's span. N is rows emitted.
	KindPartition
	// KindAdmission is the time spent queued at the admission gate before
	// execution began. Op is NoOp.
	KindAdmission
	// KindPinWait and KindReadRetry are storage-side point events
	// synthesized from buffer-pool and disk stat deltas after the run: N is
	// the event count, Total the time attributed to it (pin waits only —
	// retries are charged to simulated IO).
	// Under intra-query parallelism the per-event intervals overlap
	// arbitrarily, so they are reported as aggregates rather than
	// fabricated intervals.
	KindPinWait
	KindReadRetry
)

// String names the kind for rendering.
func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindOperator:
		return "operator"
	case KindOpen:
		return "open"
	case KindClose:
		return "close"
	case KindNext:
		return "next"
	case KindPartition:
		return "partition"
	case KindAdmission:
		return "admission"
	case KindPinWait:
		return "pin-wait"
	case KindReadRetry:
		return "read-retry"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NoOp marks a span that is not tied to an operator (query, admission,
// storage events).
const NoOp int32 = -1

// Span is one recorded event. Start and End are offsets from the
// recorder's epoch; a point event has End == Start and carries its
// aggregate in N/Total. Span deliberately holds no pointers so emitting
// one never allocates and a full buffer of them stays off the GC scan
// list.
type Span struct {
	Op    int32         // operator id, or NoOp
	Kind  Kind          // what the interval measures
	Start time.Duration // offset from trace epoch
	End   time.Duration // offset from trace epoch; == Start for point events
	N     int64         // rows, calls, or event count, per Kind
	Calls int64         // NextBatch invocations (KindNext only)
	Total time.Duration // aggregate time for summary/point spans
}

// DefaultCapacity bounds a recorder when the caller does not choose one.
// Traces are proportional to plan size (~4 spans per operator plus a
// handful of engine spans), so 4096 leaves room for three orders of
// magnitude over a typical plan before anything is dropped.
const DefaultCapacity = 4096

// Recorder collects spans for one query execution. The zero value is not
// usable; a nil *Recorder is the "tracing off" state and is what every
// emission site must check for.
type Recorder struct {
	epoch   time.Time
	spans   []Span
	claimed atomic.Int64 // next free slot; may run past len(spans)
	dropped atomic.Int64
}

// recorders recycles DefaultCapacity recorders between queries.
var recorders = sync.Pool{New: func() any {
	return &Recorder{spans: make([]Span, DefaultCapacity)}
}}

// NewRecorder returns a recorder whose epoch is now and whose buffer
// holds capacity spans (DefaultCapacity if capacity <= 0). A
// DefaultCapacity buffer comes from a pool that Finish refills, so the
// buffer is allocated once per process, not once per query.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity != DefaultCapacity {
		return &Recorder{epoch: time.Now(), spans: make([]Span, capacity)}
	}
	r := recorders.Get().(*Recorder)
	r.epoch = time.Now()
	r.claimed.Store(0)
	r.dropped.Store(0)
	return r
}

// Now returns the current offset from the trace epoch.
func (r *Recorder) Now() time.Duration {
	return time.Since(r.epoch)
}

// Emit records one span. Safe for concurrent use; never allocates. When
// the buffer is full the span is dropped and counted — dropping the
// newest rather than wrapping keeps every retained span's slot writable
// by exactly one goroutine, which a wrap-around ring cannot guarantee
// without locks.
func (r *Recorder) Emit(s Span) {
	idx := r.claimed.Add(1) - 1
	if idx >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[idx] = s
}

// Dropped reports how many spans were discarded because the buffer was
// full.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// Finish emits the root query span and freezes the recorder into a
// Trace whose spans are an exact-size copy of the claimed slots, then
// returns a DefaultCapacity recorder to the pool. The recorder must not be
// used afterwards; Finish is not safe to run concurrently with Emit.
func (r *Recorder) Finish() *Trace {
	wall := r.Now()
	r.Emit(Span{Op: NoOp, Kind: KindQuery, Start: 0, End: wall})
	spans := make([]Span, min(r.claimed.Load(), int64(len(r.spans))))
	copy(spans, r.spans)
	t := &Trace{Epoch: r.epoch, Wall: wall, Spans: spans, Dropped: r.dropped.Load()}
	if len(r.spans) == DefaultCapacity {
		recorders.Put(r)
	}
	return t
}

// Trace is a finished, immutable recording.
type Trace struct {
	Epoch   time.Time
	Wall    time.Duration
	Spans   []Span
	Dropped int64
}

// OperatorSpan returns the lifetime span for operator op, or false.
func (t *Trace) OperatorSpan(op int32) (Span, bool) {
	for _, s := range t.Spans {
		if s.Kind == KindOperator && s.Op == op {
			return s, true
		}
	}
	return Span{}, false
}

// ByKind returns the spans of the given kind in emission order.
func (t *Trace) ByKind(k Kind) []Span {
	var out []Span
	for _, s := range t.Spans {
		if s.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// OperatorCount reports how many distinct operators have lifetime spans.
func (t *Trace) OperatorCount() int {
	n := 0
	for _, s := range t.Spans {
		if s.Kind == KindOperator {
			n++
		}
	}
	return n
}

// Validate checks the structural invariants a complete trace must obey:
//
//   - exactly one query span, covering every other span's interval;
//   - per operator: exactly one lifetime span, at most one open, at most
//     one close, at most one next summary, each nested within the
//     lifetime interval;
//   - partition spans nested within their operator's lifetime;
//   - every interval well-ordered (Start <= End) and within [0, Wall].
//
// opCount, when >= 0, additionally requires exactly that many operator
// lifetime spans — callers take it from the plan so a trace cannot
// silently miss an operator. Validation requires a complete trace; a
// recorder that dropped spans cannot be validated.
func (t *Trace) Validate(opCount int) error {
	if t.Dropped > 0 {
		return fmt.Errorf("trace dropped %d spans; structural validation needs a complete trace", t.Dropped)
	}
	var query *Span
	type opAgg struct{ life, open, close_, next int }
	ops := make(map[int32]*opAgg)
	lifetimes := make(map[int32]Span)
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.Start < 0 || s.End < s.Start || s.End > t.Wall {
			return fmt.Errorf("span %d (%s op %d): interval [%v, %v] outside [0, %v]",
				i, s.Kind, s.Op, s.Start, s.End, t.Wall)
		}
		switch s.Kind {
		case KindQuery:
			if query != nil {
				return fmt.Errorf("multiple query spans")
			}
			query = s
		case KindOperator, KindOpen, KindClose, KindNext:
			a := ops[s.Op]
			if a == nil {
				a = &opAgg{}
				ops[s.Op] = a
			}
			switch s.Kind {
			case KindOperator:
				a.life++
				lifetimes[s.Op] = *s
			case KindOpen:
				a.open++
			case KindClose:
				a.close_++
			case KindNext:
				a.next++
			}
		}
	}
	if query == nil {
		return fmt.Errorf("no query span")
	}
	nOps := 0
	for op, a := range ops {
		if a.life != 1 {
			return fmt.Errorf("operator %d: %d lifetime spans, want exactly 1", op, a.life)
		}
		nOps++
		if a.open > 1 || a.close_ > 1 || a.next > 1 {
			return fmt.Errorf("operator %d: open=%d close=%d next=%d, want at most 1 each",
				op, a.open, a.close_, a.next)
		}
	}
	if opCount >= 0 && nOps != opCount {
		return fmt.Errorf("trace has %d operator spans, plan has %d operators", nOps, opCount)
	}
	for i := range t.Spans {
		s := &t.Spans[i]
		switch s.Kind {
		case KindQuery:
			continue
		case KindOpen, KindClose, KindNext, KindPartition:
			life, ok := lifetimes[s.Op]
			if !ok {
				return fmt.Errorf("span %d (%s): operator %d has no lifetime span", i, s.Kind, s.Op)
			}
			if s.Start < life.Start || s.End > life.End {
				return fmt.Errorf("span %d (%s op %d): [%v, %v] not nested in operator lifetime [%v, %v]",
					i, s.Kind, s.Op, s.Start, s.End, life.Start, life.End)
			}
		}
		if s.Start < query.Start || s.End > query.End {
			return fmt.Errorf("span %d (%s op %d): [%v, %v] not nested in query span [%v, %v]",
				i, s.Kind, s.Op, s.Start, s.End, query.Start, query.End)
		}
	}
	return nil
}

// Render writes a human-readable listing: the query span, then each
// operator's lifetime with its phases indented beneath it in id order,
// then engine and storage events. It is a debugging view — EXPLAIN
// ANALYZE is the user-facing rendering.
func (t *Trace) Render() string {
	var b []byte
	appendSpan := func(indent string, s Span) {
		b = append(b, indent...)
		b = fmt.Appendf(b, "%-10s", s.Kind)
		b = fmt.Appendf(b, " [%8.3fms %8.3fms]", ms(s.Start), ms(s.End))
		if s.N != 0 {
			b = fmt.Appendf(b, " n=%d", s.N)
		}
		if s.Calls != 0 {
			b = fmt.Appendf(b, " calls=%d", s.Calls)
		}
		if s.Total != 0 {
			b = fmt.Appendf(b, " total=%.3fms", ms(s.Total))
		}
		b = append(b, '\n')
	}
	for _, s := range t.Spans {
		if s.Kind == KindQuery {
			appendSpan("", s)
		}
	}
	var opIDs []int32
	perOp := make(map[int32][]Span)
	for _, s := range t.Spans {
		switch s.Kind {
		case KindOperator, KindOpen, KindNext, KindClose, KindPartition:
			if _, ok := perOp[s.Op]; !ok {
				opIDs = append(opIDs, s.Op)
			}
			perOp[s.Op] = append(perOp[s.Op], s)
		}
	}
	sort.Slice(opIDs, func(i, j int) bool { return opIDs[i] < opIDs[j] })
	for _, op := range opIDs {
		spans := perOp[op]
		sort.SliceStable(spans, func(i, j int) bool {
			// Lifetime first, then by start.
			if (spans[i].Kind == KindOperator) != (spans[j].Kind == KindOperator) {
				return spans[i].Kind == KindOperator
			}
			return spans[i].Start < spans[j].Start
		})
		for _, s := range spans {
			if s.Kind == KindOperator {
				b = fmt.Appendf(b, "  op %d:\n", op)
				appendSpan("    ", s)
			} else {
				appendSpan("      ", s)
			}
		}
	}
	for _, s := range t.Spans {
		switch s.Kind {
		case KindAdmission, KindPinWait, KindReadRetry:
			appendSpan("  ", s)
		}
	}
	if t.Dropped > 0 {
		b = fmt.Appendf(b, "  (%d spans dropped)\n", t.Dropped)
	}
	return string(b)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
