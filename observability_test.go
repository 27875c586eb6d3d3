package pagefeedback

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"pagefeedback/internal/exec"
	"pagefeedback/internal/metrics"
	"pagefeedback/internal/trace"
)

// countOps counts the operator nodes in a stats tree — the EXPLAIN-visible
// operator count a complete trace must match.
func countOps(op exec.OperatorStats) int {
	n := 1
	for _, c := range op.Children {
		n += countOps(c)
	}
	return n
}

// parityRuntime reduces runtime stats to the slice two runs of the same
// query must agree on; relaxed drops the IO figures from it. A parallel
// plan's partitions share their file's disk head, so which reads count as
// sequential or random depends on how the workers interleave, and the query
// leaves the head wherever its last read happened to land. A serial query
// after it inherits that head and diverges too — unless one scheduler thread
// made the interleaving itself deterministic. Two untraced runs differ the
// same way.
func parityRuntime(rt exec.RuntimeStats, relaxed bool) exec.RuntimeStats {
	rt = deterministicRuntime(rt)
	if relaxed {
		rt.SimulatedIO, rt.SimulatedTotal = 0, 0
		rt.RandomReads, rt.PhysicalReads = 0, 0
	}
	return rt
}

// parityRows renders rows for comparison; parallel runs of unsorted
// queries may legitimately permute them, so those compare as multisets.
func parityRows(res *Result, parallel bool) []string {
	rows := renderRows(res)
	if parallel {
		sort.Strings(rows)
	}
	return rows
}

// TestTraceParityMatrix is the central observability guarantee: across the
// execution matrix (serial, then parallel), running a query with
// tracing on changes NOTHING observable except Result.Trace itself — rows,
// monitored DPC feedback, deterministic runtime stats, and the exported
// feedback state are byte-identical with an untraced engine that ran the
// same sequence. Two engines rather than interleaved runs on one: the IO
// model classifies reads by where the previous query left the disk head.
//
// Along the way every produced trace must be structurally well-formed:
// spans ended exactly once, phases nested in operator lifetimes, and the
// operator span count equal to both the plan the executor reports and the
// EXPLAIN stats tree.
func TestTraceParityMatrix(t *testing.T) {
	traced := buildJoinDB(t, 8000)
	plain := buildJoinDB(t, 8000)
	matrix := []struct {
		name string
		par  int
	}{
		{"serial", 0},
		{"parallel", 4},
	}
	sawParallel := false
	for _, m := range matrix {
		for _, q := range parityQueries {
			opts := func(traceOn bool) *RunOptions {
				return &RunOptions{
					MonitorAll:  true,
					Parallelism: m.par,
					Trace:       traceOn,
				}
			}
			tr, err := traced.Query(q, opts(true))
			if err != nil {
				t.Fatalf("%s %s (traced): %v", m.name, q, err)
			}
			pl, err := plain.Query(q, opts(false))
			if err != nil {
				t.Fatalf("%s %s (untraced): %v", m.name, q, err)
			}
			if pl.Trace != nil {
				t.Fatalf("%s %s: untraced run produced a trace", m.name, q)
			}
			par := m.par > 1
			sawParallel = sawParallel || par
			relaxed := par || (runtime.GOMAXPROCS(0) > 1 && sawParallel)
			if got, want := parityRows(tr, par), parityRows(pl, par); !equalStringSlices(got, want) {
				t.Errorf("%s %s: rows diverge\n traced: %v\n untraced: %v", m.name, q, got, want)
			}
			if got, want := renderDPCResults(tr), renderDPCResults(pl); !equalStringSlices(got, want) {
				t.Errorf("%s %s: DPC feedback diverges\n traced: %v\n untraced: %v", m.name, q, got, want)
			}
			if got, want := parityRuntime(tr.Stats.Runtime, relaxed), parityRuntime(pl.Stats.Runtime, relaxed); got != want {
				t.Errorf("%s %s: runtime stats diverge\n traced: %+v\n untraced: %+v", m.name, q, got, want)
			}
			if tr.Trace == nil {
				t.Fatalf("%s %s: traced run has no trace", m.name, q)
			}
			if err := tr.Trace.Validate(tr.Operators); err != nil {
				t.Errorf("%s %s: malformed trace: %v\n%s", m.name, q, err, tr.Trace.Render())
			}
			if got, want := tr.Trace.OperatorCount(), countOps(tr.Stats.Plan); got != want {
				t.Errorf("%s %s: trace covers %d operators, stats tree has %d", m.name, q, got, want)
			}
			// Feed both engines identically so the final exported state
			// exercises the whole feedback pipeline, traced and not.
			traced.ApplyFeedback(tr)
			plain.ApplyFeedback(pl)
		}
	}
	var a, b bytes.Buffer
	if err := traced.ExportFeedback(&a); err != nil {
		t.Fatal(err)
	}
	if err := plain.ExportFeedback(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("feedback export differs between traced and untraced engines:\n traced: %s\n untraced: %s",
			a.String(), b.String())
	}
}

// TestTracePartitionSpans pins the parallel-specific span shape: a traced
// parallel scan records one partition span per worker, each nested in its
// operator's lifetime (Validate enforces the nesting; this test checks
// they exist and account for every row).
func TestTracePartitionSpans(t *testing.T) {
	eng := buildTestDB(t, 12000)
	res, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c5 < 11000",
		&RunOptions{Trace: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Runtime.Parallelism < 2 {
		t.Skip("machine too small for a parallel plan")
	}
	parts := res.Trace.ByKind(trace.KindPartition)
	if len(parts) != res.Stats.Runtime.Parallelism {
		t.Fatalf("%d partition spans, want one per worker (%d)\n%s",
			len(parts), res.Stats.Runtime.Parallelism, res.Trace.Render())
	}
	var rows int64
	for _, p := range parts {
		rows += p.N
	}
	if rows != 11000 {
		t.Errorf("partition spans account for %d rows, want 11000", rows)
	}
	if err := res.Trace.Validate(res.Operators); err != nil {
		t.Errorf("parallel trace malformed: %v", err)
	}
}

// TestSlowQueryLog arms the log with a 1ns threshold (every query is slow)
// and checks capture, rendering, bounded retention, and that arming the
// log forces tracing even when the caller did not ask for it.
func TestSlowQueryLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlowQueryThreshold = time.Nanosecond
	eng := buildTestDBCfg(t, 4000, cfg)
	const queries = defaultSlowLogSize + 2
	for i := 1; i <= queries; i++ {
		res, err := eng.Query(fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE c2 < %d", 100*i),
			&RunOptions{MonitorAll: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("armed slow-query log must force tracing")
		}
	}
	slow := eng.SlowQueries()
	if len(slow) != defaultSlowLogSize {
		t.Fatalf("slow log holds %d entries, want the capped %d", len(slow), defaultSlowLogSize)
	}
	// Oldest evicted: the retained entries are the newest queries, in order.
	for i, sq := range slow {
		if want := fmt.Sprintf("c2 < %d", 100*(i+queries-defaultSlowLogSize+1)); !strings.HasSuffix(sq.Query, want) {
			t.Errorf("entry %d is %q; want the query with %s", i, sq.Query, want)
		}
	}
	for _, sq := range slow {
		if sq.WallTime <= 0 {
			t.Errorf("%s: wall time not captured", sq.Query)
		}
		if !strings.Contains(sq.Analyze, "rows:") || !strings.Contains(sq.Analyze, "q-err=") {
			t.Errorf("%s: analyze tree missing annotations:\n%s", sq.Query, sq.Analyze)
		}
		if !strings.Contains(sq.Trace, "query") {
			t.Errorf("%s: span trace missing:\n%s", sq.Query, sq.Trace)
		}
	}
	if got := counterVal(eng.MetricsSnapshot(), "pf_slow_queries_total"); got != queries {
		t.Errorf("pf_slow_queries_total = %d, want %d", got, queries)
	}
}

// counterVal extracts a named counter from a snapshot (-1 if absent).
func counterVal(s metrics.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return -1
}

// TestEngineMetrics checks the registry wiring end to end: query and error
// counters, the latency histograms, plan-cache accounting, and the
// Prometheus rendering.
func TestEngineMetrics(t *testing.T) {
	eng := buildTestDB(t, 4000)
	if _, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 1000", nil); err != nil {
		t.Fatal(err)
	}
	// Same shape again: a plan-cache hit.
	if _, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 1500", nil); err != nil {
		t.Fatal(err)
	}
	// A query that fails mid-execution with a typed error.
	if _, err := eng.Query("SELECT c1 FROM t WHERE c1 < 3000 ORDER BY c5",
		&RunOptions{MemBudget: 1}); err == nil {
		t.Fatal("memory-budget query unexpectedly succeeded")
	}
	snap := eng.MetricsSnapshot()
	counters := make(map[string]int64)
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["pf_queries_total"] != 3 {
		t.Errorf("pf_queries_total = %d, want 3", counters["pf_queries_total"])
	}
	if counters["pf_query_errors_memory_total"] != 1 {
		t.Errorf("pf_query_errors_memory_total = %d, want 1", counters["pf_query_errors_memory_total"])
	}
	if counters["pf_rows_returned_total"] != 2 {
		t.Errorf("pf_rows_returned_total = %d, want 2 (one COUNT row each)", counters["pf_rows_returned_total"])
	}
	if counters["pf_plan_cache_hits_total"] != 1 || counters["pf_plan_cache_misses_total"] != 1 {
		t.Errorf("plan cache hit/miss = %d/%d, want 1/1",
			counters["pf_plan_cache_hits_total"], counters["pf_plan_cache_misses_total"])
	}
	if counters["pf_rows_loaded_total"] != 4000 {
		t.Errorf("pf_rows_loaded_total = %d, want 4000 (fixture bulk load)", counters["pf_rows_loaded_total"])
	}
	// Occupancy gauges refresh at snapshot time; the engine is idle now.
	gauges := make(map[string]int64)
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	for _, name := range []string{"pf_queries_active", "pf_admission_queued", "pf_admission_peak_queued"} {
		if v, ok := gauges[name]; !ok {
			t.Errorf("gauge %s missing from snapshot", name)
		} else if v != 0 {
			t.Errorf("idle engine: gauge %s = %d, want 0", name, v)
		}
	}
	wallCount := int64(-1)
	for _, h := range snap.Histograms {
		if h.Name == "pf_query_wall_microseconds" {
			wallCount = h.Hist.Count
		}
	}
	if wallCount != 2 {
		t.Errorf("wall-time histogram count = %d, want 2 observations", wallCount)
	}
	var buf bytes.Buffer
	if err := eng.WriteMetricsPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE pf_queries_total counter",
		"pf_queries_total 3",
		"# TYPE pf_query_wall_microseconds histogram",
		"pf_query_wall_microseconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
	// Snapshot order is stable: names sorted within each section.
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Errorf("counter order not stable: %q before %q", snap.Counters[i-1].Name, snap.Counters[i].Name)
		}
	}
}

// TestTraceDisabledAllocFree asserts the zero-cost-when-disabled claim in
// allocation terms: the per-page allocation profile of a warm scan is
// identical with tracing off and on (the recorder and its span buffer are
// a bounded constant), so the disabled path adds zero allocations per page
// — and the enabled path too, since spans are emitted into preallocated
// memory.
func TestTraceDisabledAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	small := buildTestDB(t, 4000)
	large := buildTestDB(t, 16000)
	measure := func(eng *Engine, n int, traceOn bool) float64 {
		sql := fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE c1 < %d", n)
		opts := &RunOptions{WarmCache: true, Trace: traceOn}
		if _, err := eng.Query(sql, opts); err != nil { // warm pool + plan cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := eng.Query(sql, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	offSmall := measure(small, 4000, false)
	offLarge := measure(large, 16000, false)
	onSmall := measure(small, 4000, true)
	onLarge := measure(large, 16000, true)
	// The scan itself allocates O(pages) (page-batched decode); tracing
	// must not change that slope.
	offSlope := offLarge - offSmall
	onSlope := onLarge - onSmall
	if diff := onSlope - offSlope; diff > 8 || diff < -8 {
		t.Errorf("tracing changes the per-page allocation slope: off %+.0f, on %+.0f (queries over 4k vs 16k rows)",
			offSlope, onSlope)
	}
	// And the constant overhead of tracing is bounded: recorder, span
	// buffer, finished trace — not per-row or per-page cost.
	if diff := onSmall - offSmall; diff > 24 {
		t.Errorf("tracing adds %.0f allocations per query, want a small constant (off=%.0f on=%.0f)",
			diff, offSmall, onSmall)
	}
}
