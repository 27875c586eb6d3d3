package main

import (
	"encoding/json"
	"os"
	"time"
)

// stage names a span: a call into one layer, or a shell around several.
type stage uint8

// A visit's value for a stage is the total self time of that stage's spans
// under one root span; a per-layer metric is the median of that over visits.
const (
	stageEngine     stage = iota // root: the op end to end through the engine, as the timed pass runs it
	stageStaged                  // root: the op replayed stage by stage
	stageRunQuery                // root: Engine.RunQuery on the parsed query
	stageExecute                 // root: Engine.Execute on the optimized plan
	stageParse                   // sql.Parse
	stageBind                    // Template.Bind
	stageKey                     // sql.QueryKey
	stageOptSingle               // Optimizer.Optimize, one table
	stageOptJoin                 // Optimizer.Optimize, join
	stageReset                   // BufferPool.Reset before a cold run
	stageBuild                   // exec.NewContext + exec.Build
	stageRun                     // Execution.Run
	stageClear                   // ClearInjections + ClearDPCHistograms
	stageInjectCard              // counting query + InjectCardinality
	stageApply                   // Engine.ApplyFeedback
	stageFromCache               // Engine.InjectFromCache
	numStages
)

var stageNames = [numStages]string{
	"engine.query", "staged", "engine.run_query", "engine.execute",
	"sql.parse", "sql.bind", "sql.query_key", "opt.optimize_single", "opt.optimize_join",
	"storage.reset", "exec.build", "exec.run",
	"engine.clear_feedback", "engine.inject_cardinality", "engine.apply_feedback", "engine.inject_from_cache",
}

func (s stage) String() string { return stageNames[s] }

// span is one interval recorded by the benchmark around a call into a layer.
// Parent is the index of the enclosing span in the recorder (-1 for a root);
// Op is the index of the op in the workload's list. It holds no pointers, so
// a million of them cost the garbage collector nothing.
type span struct {
	Start, End int64 // ns from the recorder's epoch
	Parent, Op int32
	Stage      stage
}

// recorder keeps spans in memory; nothing is written until the run ends. It
// is single-goroutine by design: the traced pass replays ops serially.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int32 // open spans, innermost last
	op    int32
}

// recorderCap bounds one traced pass: oltp_point would otherwise record
// millions of spans, and the first million read the same as the rest.
const recorderCap = 1 << 20

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, recorderCap)}
}

// full reports whether another op's spans might not fit.
func (r *recorder) full() bool { return len(r.spans) > recorderCap-64 }

// beginRoot starts a root span for the op with the given list index; spans
// begun before its end nest under it.
func (r *recorder) beginRoot(s stage, op int) {
	r.op = int32(op)
	r.stack = r.stack[:0]
	r.begin(s)
}

// begin opens a span nested in whatever span is currently open.
func (r *recorder) begin(s stage) {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Stage: s, Start: int64(time.Since(r.epoch)), Parent: parent, Op: r.op})
	r.stack = append(r.stack, int32(len(r.spans)-1))
}

// end closes the innermost open span.
func (r *recorder) end() {
	n := len(r.stack)
	if n == 0 {
		return
	}
	r.spans[r.stack[n-1]].End = int64(time.Since(r.epoch))
	r.stack = r.stack[:n-1]
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover: children are clipped to the parent and
// overlapping children are counted once. Spans must be in start order, as the
// recorder appends them.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // per parent: its interval is accounted for up to here
	for i, s := range spans {
		self[i] = s.End - s.Start
		covered[i] = s.Start
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := s.Start, s.End
		if lo < covered[s.Parent] {
			lo = covered[s.Parent]
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			self[s.Parent] -= hi - lo
			covered[s.Parent] = hi
		}
	}
	return self
}

// visit is one root span and everything under it: the op it ran (its index
// in the op list) and, per stage it has a span of, the total self time in
// microseconds.
type visit struct {
	op   int32
	self [numStages]float64
	has  [numStages]bool
}

// visits folds spans into one visit per root span. A span's parent always
// precedes it, so one forward pass resolves every span's root.
func visits(spans []span) []visit {
	self := selfTimes(spans)
	root := make([]int32, len(spans)) // span -> position of its root's visit in out
	var out []visit
	for i, s := range spans {
		if s.Parent < 0 {
			root[i] = int32(len(out))
			out = append(out, visit{op: s.Op})
		} else {
			root[i] = root[s.Parent]
		}
		v := &out[root[i]]
		v.self[s.Stage] += float64(self[i]) / 1e3
		v.has[s.Stage] = true
	}
	return out
}

// maxSpansWritten bounds the trace file.
const maxSpansWritten = 50000

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Recorded int         `json:"spans_recorded"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// writeTrace writes the first maxSpansWritten spans as JSON.
func writeTrace(path, workload string, seed int64, spans []span) error {
	n := len(spans)
	if n > maxSpansWritten {
		n = maxSpansWritten
	}
	tf := traceFile{Workload: workload, Seed: seed, Recorded: len(spans), Spans: make([]traceSpan, n)}
	for i, s := range spans[:n] {
		tf.Spans[i] = traceSpan{Name: s.Stage.String(), Start: s.Start, End: s.End, Parent: s.Parent, Op: s.Op}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
