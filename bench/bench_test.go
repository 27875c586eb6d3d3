package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"
)

// testRows is the dataset size the tests build: every plan shape of the full
// run still appears, in a fraction of a second.
const testRows = 8000

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {-1, 1}, {2, 5},
	} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if in[0] != 9 {
		t.Error("median sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestSummarizeTakesMediansOverSlices(t *testing.T) {
	// Three slices of one second; the middle one ran on a machine half as
	// fast. Medians over slices ignore it; the pooled tail does not.
	fast := slice{seconds: 1, latencies: []float64{1, 1, 1, 1}}
	slow := slice{seconds: 1, latencies: []float64{2, 40}}
	s := summarize([]slice{fast, slow, fast, {}})
	if s.qps != 4 {
		t.Errorf("qps = %v, want the median slice rate 4", s.qps)
	}
	if s.p50ms != 1 {
		t.Errorf("p50 = %v, want the median of slice medians 1", s.p50ms)
	}
	if s.samples != 10 {
		t.Errorf("samples = %d, want 10 pooled", s.samples)
	}
	if s.p99ms < 30 {
		t.Errorf("p99 = %v: the pooled tail should see the slow slice", s.p99ms)
	}
}

func TestSummarizeCalibrates(t *testing.T) {
	// The same work measured on a machine running at half speed: the clock
	// reads half the rate and twice the latency, the calibrated figures agree.
	quiet := slice{factor: 1, seconds: 1, latencies: []float64{1, 1, 1, 3}}
	slow := slice{factor: 2, seconds: 2, latencies: []float64{2, 2, 2, 6}}
	a, b := summarize([]slice{quiet}), summarize([]slice{slow})
	if a.qps != b.qps || a.p50ms != b.p50ms || a.p95ms != b.p95ms {
		t.Errorf("calibrated figures differ: %+v vs %+v", a, b)
	}
	if b.rawQPS != 2 || b.rawP50 != 2 || b.factor != 2 {
		t.Errorf("raw figures = %+v, want what the clock read", b)
	}
}

func TestQError(t *testing.T) {
	for _, c := range []struct{ est, act, want float64 }{
		{10, 5, 2}, {5, 10, 2}, {0, 4, 4}, {7, 0, 7}, {3, 3, 1},
	} {
		if got := qerror(c.est, c.act); got != c.want {
			t.Errorf("qerror(%v, %v) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(st stage, start, end int64, parent int32) span {
		return span{Stage: st, Start: start, End: end, Parent: parent}
	}
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"leaf", []span{sp(stageRun, 0, 100, -1)}, []int64{100}},
		{"siblings", []span{
			sp(stageStaged, 0, 100, -1), sp(stageParse, 10, 30, 0), sp(stageRun, 40, 90, 0),
		}, []int64{30, 20, 50}},
		{"nested", []span{
			sp(stageStaged, 0, 100, -1), sp(stageBuild, 10, 90, 0), sp(stageRun, 20, 50, 1),
		}, []int64{20, 50, 30}},
		{"overlapping children count once", []span{
			sp(stageStaged, 0, 100, -1), sp(stageParse, 10, 60, 0), sp(stageRun, 40, 80, 0),
		}, []int64{30, 50, 40}},
		{"child clipped to parent", []span{
			sp(stageStaged, 0, 100, -1), sp(stageRun, 90, 130, 0),
		}, []int64{90, 40}},
		{"two roots", []span{
			sp(stageEngine, 0, 50, -1), sp(stageStaged, 60, 100, -1), sp(stageRun, 70, 80, 1),
		}, []int64{50, 30, 10}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self time of span %d = %d, want %d", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestVisitsGroupByRoot(t *testing.T) {
	r := newRecorder()
	r.beginRoot(stageStaged, 7)
	r.begin(stageRun)
	r.end()
	r.begin(stageRun)
	r.end()
	r.end()
	r.beginRoot(stageEngine, 8)
	r.end()
	vs := visits(r.spans)
	if len(vs) != 2 || vs[0].op != 7 || vs[1].op != 8 {
		t.Fatalf("visits = %+v, want one per root with ops 7 and 8", vs)
	}
	if !vs[0].has[stageRun] || vs[0].has[stageEngine] || !vs[1].has[stageEngine] || vs[1].has[stageRun] {
		t.Errorf("stages landed under the wrong root: %+v", vs)
	}
	var runs int64
	for _, s := range r.spans[1:3] {
		runs += s.End - s.Start
	}
	if got := vs[0].self[stageRun]; math.Abs(got-float64(runs)/1e3) > 1e-9 {
		t.Errorf("two run spans total %v us, want %v", got, float64(runs)/1e3)
	}
}

func TestOpListsAreDeterministic(t *testing.T) {
	for _, w := range workloads() {
		a, err := newBed(w, testRows, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := newBed(w, testRows, 1)
		if err != nil {
			t.Fatal(err)
		}
		other, err := newBed(w, testRows, 2)
		if err != nil {
			t.Fatal(err)
		}
		if listHash(a.ops) != listHash(again.ops) {
			t.Errorf("%s: the same seed gave two different op lists", w.name)
		}
		if listHash(a.ops) == listHash(other.ops) {
			t.Errorf("%s: two seeds gave the same constants", w.name)
		}
		if got, want := shapeCounts(other.ops), shapeCounts(a.ops); !sameCounts(got, want) {
			t.Errorf("%s: the seed changed the mix of query shapes: %v vs %v", w.name, got, want)
		}
	}
}

// listHash fingerprints an op list: same seed, same hash.
func listHash(ops []op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%d|%s|", o.stmt, o.sql)
		for _, a := range o.args {
			fmt.Fprintf(h, "%d,", a.Int)
		}
	}
	return h.Sum64()
}

func shapeCounts(ops []op) map[string]int {
	m := make(map[string]int)
	for _, o := range ops {
		m[o.shape]++
	}
	return m
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload through both driver modes at a small scale
// and checks that every metric BENCHMARK.json names is printed exactly once,
// and that nothing failed: the reference answers and the engine agree.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
	}
	dir := t.TempDir()
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			e2e, tally, err := runEndToEnd(w, testRows, 1, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if tally.failed != 0 || tally.attempted == 0 {
				t.Errorf("end to end: %d of %d failed: %v", tally.failed, tally.attempted, tally.notes)
			}
			checkPrinted(t, w.name, spec.EndToEnd, e2e)
			for _, m := range spec.EndToEnd {
				if e2e[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, e2e[m.Name])
				}
			}

			layers, tally, err := runLayers(w, testRows, 1, 400*time.Millisecond, dir)
			if err != nil {
				t.Fatal(err)
			}
			if tally.failed != 0 || tally.attempted == 0 {
				t.Errorf("per layer: %d of %d failed: %v", tally.failed, tally.attempted, tally.notes)
			}
			checkPrinted(t, w.name, spec.PerLayer, layers)
			if w.name != "feedback_loop" && layers["storage.hit_ratio"] != 1 {
				t.Errorf("storage.hit_ratio = %v on a warm workload, want 1", layers["storage.hit_ratio"])
			}
		})
	}
}

// checkPrinted prints the metrics as a driver run does and counts the lines.
func checkPrinted(t *testing.T, workload string, specs []metricSpec, v values) {
	t.Helper()
	picked, err := pick(specs, v)
	if err != nil {
		t.Error(err)
		return
	}
	var buf bytes.Buffer
	printMetrics(&buf, workload, specs, picked)
	seen := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != workload {
			t.Errorf("malformed metric line %q", line)
			continue
		}
		seen[f[1]]++
	}
	for _, m := range specs {
		if seen[m.Name] != 1 {
			t.Errorf("metric %s printed %d times, want once", m.Name, seen[m.Name])
		}
	}
	if len(seen) != len(specs) {
		t.Errorf("%d metric names printed, BENCHMARK.json lists %d", len(seen), len(specs))
	}
}
