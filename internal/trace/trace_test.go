package trace

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEmitFinishRoundtrip(t *testing.T) {
	r := NewRecorder(16)
	open := Span{Op: 0, Kind: KindOpen, Start: 1, End: 2}
	life := Span{Op: 0, Kind: KindOperator, Start: 1, End: 5, N: 10}
	r.Emit(open)
	r.Emit(life)
	tr := r.Finish()
	if len(tr.Spans) != 3 { // two emitted + the query span
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	if tr.Spans[0] != open || tr.Spans[1] != life {
		t.Errorf("spans not preserved in order: %+v", tr.Spans)
	}
	q := tr.Spans[2]
	if q.Kind != KindQuery || q.Op != NoOp || q.Start != 0 || q.End != tr.Wall {
		t.Errorf("query span malformed: %+v (wall %v)", q, tr.Wall)
	}
	if got, ok := tr.OperatorSpan(0); !ok || got != life {
		t.Errorf("OperatorSpan(0) = %+v, %v", got, ok)
	}
	if _, ok := tr.OperatorSpan(7); ok {
		t.Error("OperatorSpan(7) found a span for an absent operator")
	}
	if got := tr.OperatorCount(); got != 1 {
		t.Errorf("OperatorCount = %d, want 1", got)
	}
}

func TestDropNewestWhenFull(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Emit(Span{Op: int32(i), Kind: KindOpen})
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	tr := r.Finish()
	// The query span is also dropped once the buffer is full.
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Op != 0 || tr.Spans[1].Op != 1 {
		t.Errorf("retained spans are not the oldest: %+v", tr.Spans)
	}
	if tr.Dropped != 4 {
		t.Errorf("trace Dropped = %d, want 4", tr.Dropped)
	}
	if err := tr.Validate(-1); err == nil {
		t.Error("Validate accepted a trace with dropped spans")
	}
}

func TestDefaultCapacity(t *testing.T) {
	for _, c := range []int{0, -3} {
		r := NewRecorder(c)
		if len(r.spans) != DefaultCapacity {
			t.Errorf("NewRecorder(%d): capacity %d, want %d", c, len(r.spans), DefaultCapacity)
		}
	}
}

// wellFormed builds a trace with two operators (one with a partition
// span) plus admission and storage events, every interval nested
// properly.
func wellFormed() *Recorder {
	r := NewRecorder(64)
	r.Emit(Span{Op: NoOp, Kind: KindAdmission, Start: 0, End: 1})
	r.Emit(Span{Op: 0, Kind: KindOperator, Start: 2, End: 20, N: 100})
	r.Emit(Span{Op: 0, Kind: KindOpen, Start: 2, End: 3})
	r.Emit(Span{Op: 0, Kind: KindNext, Start: 4, End: 18, N: 100, Calls: 7, Total: 12})
	r.Emit(Span{Op: 0, Kind: KindClose, Start: 19, End: 20})
	r.Emit(Span{Op: 1, Kind: KindOperator, Start: 3, End: 18, N: 100})
	r.Emit(Span{Op: 1, Kind: KindOpen, Start: 3, End: 4})
	r.Emit(Span{Op: 1, Kind: KindPartition, Start: 5, End: 15, N: 50})
	r.Emit(Span{Op: 1, Kind: KindPartition, Start: 5, End: 16, N: 50})
	r.Emit(Span{Op: 1, Kind: KindClose, Start: 17, End: 18})
	r.Emit(Span{Op: NoOp, Kind: KindPinWait, Start: 20, End: 20, N: 3, Total: 5})
	r.Emit(Span{Op: NoOp, Kind: KindReadRetry, Start: 20, End: 20, N: 1})
	return r
}

func TestValidateAccepts(t *testing.T) {
	tr := wellFormed().Finish()
	if err := tr.Validate(2); err != nil {
		t.Fatalf("Validate rejected a well-formed trace: %v", err)
	}
	if err := tr.Validate(-1); err != nil {
		t.Fatalf("Validate(-1) rejected a well-formed trace: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		emit    func(r *Recorder)
		opCount int
		want    string
	}{
		{"wrong operator count", func(r *Recorder) {}, 3, "plan has 3 operators"},
		{"duplicate lifetime", func(r *Recorder) {
			r.Emit(Span{Op: 0, Kind: KindOperator, Start: 2, End: 20})
		}, 2, "lifetime spans"},
		{"double close", func(r *Recorder) {
			r.Emit(Span{Op: 0, Kind: KindClose, Start: 19, End: 20})
		}, 2, "at most 1"},
		{"orphan phase", func(r *Recorder) {
			r.Emit(Span{Op: 9, Kind: KindNext, Start: 4, End: 5})
		}, 2, "0 lifetime spans"},
		{"escapes parent", func(r *Recorder) {
			r.Emit(Span{Op: 2, Kind: KindOperator, Start: 5, End: 10})
			r.Emit(Span{Op: 2, Kind: KindPartition, Start: 5, End: 12})
		}, 3, "not nested in operator lifetime"},
		{"inverted interval", func(r *Recorder) {
			r.Emit(Span{Op: NoOp, Kind: KindPinWait, Start: 9, End: 3})
		}, 2, "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := wellFormed()
			tc.emit(r)
			tr := r.Finish()
			err := tr.Validate(tc.opCount)
			if err == nil {
				t.Fatal("Validate accepted a malformed trace")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateRequiresQuerySpan(t *testing.T) {
	tr := &Trace{Wall: 100, Spans: []Span{{Op: 0, Kind: KindOperator, Start: 0, End: 5}}}
	if err := tr.Validate(-1); err == nil || !strings.Contains(err.Error(), "no query span") {
		t.Fatalf("Validate = %v, want missing-query-span error", err)
	}
}

// TestConcurrentEmit hammers one recorder from many goroutines — the
// parallel-scan sharing pattern — and checks that exactly min(emitted,
// capacity) spans land, the rest are counted as dropped, and no slot is
// written twice (every retained span is a valid emission, checked by a
// per-writer payload). Run under -race this also proves the claim path
// has no write-write races.
func TestConcurrentEmit(t *testing.T) {
	const writers, perWriter, capacity = 8, 500, 1024
	r := NewRecorder(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Emit(Span{Op: int32(w), Kind: KindPartition, N: int64(i + 1)})
			}
		}(w)
	}
	wg.Wait()
	tr := r.Finish()
	total := writers * perWriter
	if len(tr.Spans) != capacity {
		t.Fatalf("retained %d spans, want %d", len(tr.Spans), capacity)
	}
	// total - capacity emissions dropped, plus the query span Finish tried
	// to emit into the full buffer.
	if tr.Dropped != int64(total-capacity)+1 {
		t.Errorf("Dropped = %d, want %d", tr.Dropped, total-capacity+1)
	}
	seen := make(map[int32]map[int64]bool)
	for i, s := range tr.Spans {
		if s.Kind != KindPartition || s.Op < 0 || s.Op >= writers || s.N < 1 || s.N > perWriter {
			t.Fatalf("span %d is not a valid emission: %+v", i, s)
		}
		if seen[s.Op] == nil {
			seen[s.Op] = make(map[int64]bool)
		}
		if seen[s.Op][s.N] {
			t.Fatalf("span %+v retained twice — slot reuse", s)
		}
		seen[s.Op][s.N] = true
	}
}

// TestEmitDoesNotAllocate pins the alloc-free guarantee the hot path
// depends on.
func TestEmitDoesNotAllocate(t *testing.T) {
	r := NewRecorder(1 << 16)
	span := Span{Op: 3, Kind: KindNext, Start: 1, End: 2, N: 5}
	if avg := testing.AllocsPerRun(1000, func() { r.Emit(span) }); avg != 0 {
		t.Fatalf("Emit allocates %.1f times per call, want 0", avg)
	}
}

func TestRenderListsEverySection(t *testing.T) {
	tr := wellFormed().Finish()
	out := tr.Render()
	for _, want := range []string{"query", "op 0:", "op 1:", "operator", "open", "next", "close", "partition", "admission", "pin-wait", "read-retry", "calls=7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	r := NewRecorder(1)
	r.Emit(Span{Op: NoOp, Kind: KindAdmission})
	r.Emit(Span{Op: 0, Kind: KindOpen})
	if out := r.Finish().Render(); !strings.Contains(out, "dropped") {
		t.Errorf("Render does not report dropped spans:\n%s", out)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindQuery, KindOperator, KindOpen, KindClose, KindNext,
		KindPartition, KindAdmission, KindPinWait, KindReadRetry}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.Contains(s, "kind(") || seen[s] {
			t.Errorf("Kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("unknown kind renders as %q", got)
	}
}

func TestNowAdvances(t *testing.T) {
	r := NewRecorder(4)
	a := r.Now()
	time.Sleep(time.Millisecond)
	if b := r.Now(); b <= a {
		t.Errorf("Now did not advance: %v then %v", a, b)
	}
}

// TestFinishedTraceOutlivesItsBuffer: a finished trace owns its spans. The
// next query's recorder reuses the pooled buffer and overwrites every slot
// the first one claimed, and the first trace must read as it did.
func TestFinishedTraceOutlivesItsBuffer(t *testing.T) {
	first := NewRecorder(DefaultCapacity)
	for i := range 5 {
		first.Emit(Span{Op: int32(i), Kind: KindOperator, Start: 1, End: 2, N: int64(i)})
	}
	tr := first.Finish()
	snapshot := append([]Span(nil), tr.Spans...)

	second := NewRecorder(DefaultCapacity)
	for i := range 9 {
		second.Emit(Span{Op: int32(100 + i), Kind: KindNext, Start: 3, End: 4, N: -1})
	}
	second.Finish()
	if !reflect.DeepEqual(tr.Spans, snapshot) {
		t.Errorf("first trace changed after a second traced run:\n got %+v\nwant %+v", tr.Spans, snapshot)
	}
}

// TestFinishSpansAreExact: Finish hands out a slice of exactly the claimed
// spans, not a window onto the recorder's buffer.
func TestFinishSpansAreExact(t *testing.T) {
	for _, capacity := range []int{2, 16, DefaultCapacity} {
		r := NewRecorder(capacity)
		for range 5 {
			r.Emit(Span{Kind: KindOpen})
		}
		tr := r.Finish()
		if want := min(6, capacity); len(tr.Spans) != want || cap(tr.Spans) != want {
			t.Errorf("capacity %d: len %d cap %d, want both %d", capacity, len(tr.Spans), cap(tr.Spans), want)
		}
	}
}

// TestRecorderBufferIsReused: once warm, a traced query's recorder costs the
// spans it keeps and the Trace header, not a fresh DefaultCapacity buffer
// (192 KB). The race detector makes sync.Pool drop a share of its items, so
// the measurement runs only without it.
func TestRecorderBufferIsReused(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	round := func() {
		r := NewRecorder(DefaultCapacity)
		for i := range 20 {
			r.Emit(Span{Op: int32(i), Kind: KindOperator})
		}
		r.Finish()
	}
	round()
	const rounds = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d B per round", per)
	if per >= 4<<10 {
		t.Errorf("NewRecorder + 20 Emits + Finish allocate %d B per round, want < 4 KB", per)
	}
}
