package pagefeedback_test

// BenchmarkParallelScan and BenchmarkParallelHashJoin measure the intra-query
// parallel mode (RunOptions.Parallelism) against the serial baseline on a warm
// cache, where the win is pure CPU scaling: page decode, predicate evaluation,
// and hash-probe work split across partitioned workers.
//
//	go test -bench BenchmarkParallel -run xxx .
//
// Before timing, each benchmark runs the query monitored at degree 1 and
// degree 4 and requires the DPC feedback to be identical — the parallel mode's
// correctness contract — and records that, plus the per-degree timings, the
// speedup and the commit measured, in BENCH_parallel.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pagefeedback"
	"pagefeedback/internal/plan"
)

// ensureProcs raises GOMAXPROCS to at least n so the parallel mode actually
// spawns workers on small containers (the engine clamps the degree to
// GOMAXPROCS). Wall-clock speedup still requires real cores; the recorded
// "cpus" value says how many this run had.
func ensureProcs(n int) func() {
	if runtime.GOMAXPROCS(0) >= n {
		return func() {}
	}
	old := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(old) }
}

// buildParallelBenchEngine creates fbig (clustered on id, wide rows so the
// table spans many pages) and fdim (small heap build side). Neither v nor fk
// is indexed, so predicate scans and the join probe must read every page —
// the shape partitioned workers exist for.
func buildParallelBenchEngine(b *testing.B, rows int) *pagefeedback.Engine {
	b.Helper()
	eng := pagefeedback.New(pagefeedback.DefaultConfig())
	schema := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "id", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "fk", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "v", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "pad", Kind: pagefeedback.KindString},
	)
	if _, err := eng.CreateClusteredTable("fbig", schema, []string{"id"}); err != nil {
		b.Fatal(err)
	}
	pad := strings.Repeat("p", 48)
	data := make([]pagefeedback.Row, rows)
	for i := range data {
		data[i] = pagefeedback.Row{
			pagefeedback.Int64(int64(i)),
			pagefeedback.Int64(int64(i * 11 % (rows / 16))),
			pagefeedback.Int64(int64(i * 13 % rows)),
			pagefeedback.Str(pad),
		}
	}
	if err := eng.Load("fbig", data); err != nil {
		b.Fatal(err)
	}

	dschema := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "id", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "val", Kind: pagefeedback.KindInt},
	)
	if _, err := eng.CreateHeapTable("fdim", dschema); err != nil {
		b.Fatal(err)
	}
	ddata := make([]pagefeedback.Row, rows/16)
	for i := range ddata {
		ddata[i] = pagefeedback.Row{pagefeedback.Int64(int64(i)), pagefeedback.Int64(int64(i % 997))}
	}
	if err := eng.Load("fdim", ddata); err != nil {
		b.Fatal(err)
	}
	if err := eng.Analyze("fbig", "fdim"); err != nil {
		b.Fatal(err)
	}
	// Warm the pool; the timed loops run entirely warm so the comparison is
	// CPU scaling, not the simulated I/O clock.
	if _, err := eng.Query("SELECT COUNT(pad) FROM fbig WHERE v < 1000000000",
		&pagefeedback.RunOptions{WarmCache: true}); err != nil {
		b.Fatal(err)
	}
	return eng
}

// assertSameFeedback runs the query monitored at serial and parallel degree
// and requires byte-identical DPC feedback; it returns the executed plan.
func assertSameFeedback(b *testing.B, eng *pagefeedback.Engine, sql string, deg int) plan.Node {
	b.Helper()
	mon := func(p int) *pagefeedback.Result {
		res, err := eng.Query(sql, &pagefeedback.RunOptions{
			MonitorAll: true, SampleFraction: 0.25, WarmCache: true, Parallelism: p,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	ser, par := mon(1), mon(deg)
	if !reflect.DeepEqual(ser.DPC, par.DPC) {
		b.Fatalf("DPC feedback differs between serial and parallelism %d:\n  serial   %+v\n  parallel %+v",
			deg, ser.DPC, par.DPC)
	}
	return par.Plan
}

// benchDegrees times the query at parallelism 1 and parDegree and returns
// secs/op for each.
func benchDegrees(b *testing.B, eng *pagefeedback.Engine, sql string, parDegree int) (serial, parallel float64) {
	secs := map[int]float64{}
	for _, deg := range []int{1, parDegree} {
		deg := deg
		b.Run(fmt.Sprintf("p%d", deg), func(b *testing.B) {
			// The testing package resets GOMAXPROCS per sub-benchmark from
			// the -cpu list, so the raise must happen inside the body.
			defer ensureProcs(deg)()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(sql, &pagefeedback.RunOptions{
					WarmCache: true, Parallelism: deg,
				}); err != nil {
					b.Fatal(err)
				}
			}
			secs[deg] = b.Elapsed().Seconds() / float64(b.N)
		})
	}
	return secs[1], secs[parDegree]
}

func BenchmarkParallelScan(b *testing.B) {
	const parDegree = 4
	defer ensureProcs(parDegree)()
	eng := buildParallelBenchEngine(b, 120000)
	sql := "SELECT COUNT(pad) FROM fbig WHERE v < 90000" // v unindexed: full scan

	assertSameFeedback(b, eng, sql, parDegree)
	ser, par := benchDegrees(b, eng, sql, parDegree)
	recordParallelBench(b, "BenchmarkParallelScan", parDegree, ser, par)
}

func BenchmarkParallelHashJoin(b *testing.B) {
	const parDegree = 4
	defer ensureProcs(parDegree)()
	eng := buildParallelBenchEngine(b, 120000)
	// fk is unindexed, so the only viable plans probe fbig in full; the
	// optimizer builds a hash table on the small fdim side and the probe
	// scan partitions at Parallelism > 1.
	sql := "SELECT COUNT(pad) FROM fdim, fbig WHERE fdim.val < 400 AND fdim.id = fbig.fk"

	p := assertSameFeedback(b, eng, sql, parDegree)
	if !strings.Contains(plan.Format(p), "HashJoin") {
		b.Fatalf("expected a hash join plan, got:\n%s", plan.Format(p))
	}
	ser, par := benchDegrees(b, eng, sql, parDegree)
	recordParallelBench(b, "BenchmarkParallelHashJoin", parDegree, ser, par)
}

// recordParallelBench merges one benchmark's headline numbers into
// BENCH_parallel.json (keyed by benchmark name, so the scan and join runs
// accumulate into one document). Errors are non-fatal: the benchmark's job is
// the measurement.
func recordParallelBench(b *testing.B, name string, deg int, serialSecs, parallelSecs float64) {
	const path = "BENCH_parallel.json"
	doc := map[string]map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &doc)
	}
	speedup := 0.0
	if parallelSecs > 0 {
		speedup = serialSecs / parallelSecs
	}
	doc[name] = map[string]any{
		"commit":             benchCommit(),
		"degree":             deg,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"cpus":               runtime.NumCPU(),
		"secs_per_op_serial": serialSecs,
		"secs_per_op_par":    parallelSecs,
		"speedup":            speedup,
		"feedback_identical": true, // asserted before timing; the run fails otherwise
	}
	b.ReportMetric(speedup, "speedup")
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Logf("%s not written: %v", path, err)
	}
}

// benchCommit names the source a benchmark measured: HEAD's short hash, with
// "-dirty" appended when a tracked file other than the BENCH_*.json outputs
// differs from HEAD.
func benchCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_*.json").Output()
	if err != nil || len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}
