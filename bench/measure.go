package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"pagefeedback"
)

// How a driver run spends its time. Set-up is repeated because its median is
// the reported setup_s; the measured pass is cut into slices because medians
// over slices are what survive a shared machine.
const (
	setupRepeats = 3
	timedSlices  = 8
	loopWarmOps  = 4 // feedback_loop warms lazily-built state only: its cache is cold by design
)

// tally is what a run attempted and how much of it failed.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) add(attempted, failed int, notes ...string) {
	t.attempted += attempted
	t.failed += failed
	for _, n := range notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

// prepare sets a workload up the given number of times and returns the last
// bed with the median set-up time, at the reference machine speed.
func prepare(w *workload, rows int, seed int64, repeats int) (*bed, float64, error) {
	var b *bed
	var setups []float64
	for i := 0; i < repeats; i++ {
		b = nil
		runtime.GC() // the previous dataset is garbage: do not let it share the next build's clock
		before := machineFactor()
		var err error
		if b, err = newBed(w, rows, seed); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, b.setupSeconds/((before+machineFactor())/2))
	}
	return b, median(setups), nil
}

// warmUp fills the pool, the plan cache and lazy set-up.
func (b *bed) warmUp() error {
	if b.w.loop {
		return b.warm(loopWarmOps)
	}
	return b.warm(0)
}

// Uncalibrated companions of the wall-clock metrics, printed for the record
// and not part of BENCHMARK.json.
const (
	rawQPS    = "raw.qps"
	rawP50    = "raw.p50_ms"
	rawP95    = "raw.p95_ms"
	rawFactor = "raw.machine_factor"
)

// endToEndValues assembles the end-to-end metrics of one workload.
func endToEndValues(setupS float64, c *counted, sl []slice) values {
	s := summarize(sl)
	ops := float64(c.ops)
	return values{
		rawQPS: s.rawQPS, rawP50: s.rawP50, rawP95: s.rawP95, rawFactor: s.factor,
		"setup_s":             setupS,
		"qps":                 s.qps,
		"p50_ms":              s.p50ms,
		"p95_ms":              s.p95ms,
		"allocs_per_query":    float64(c.mallocs) / ops,
		"alloc_kb_per_query":  float64(c.allocBytes) / 1024 / ops,
		"sim_ticks_per_query": float64(c.simNS) / 1e3 / ops,
	}
}

// runEndToEnd is a driver run with --trace 0: set-up (repeated), warm-up,
// counted pass, then the timed pass of d cut into slices.
func runEndToEnd(w *workload, rows int, seed int64, d time.Duration) (values, *tally, error) {
	b, setupS, err := prepare(w, rows, seed, setupRepeats)
	if err != nil {
		return nil, nil, err
	}
	if err := b.warmUp(); err != nil {
		return nil, nil, err
	}
	t := &tally{}
	c := b.countedPass()
	t.add(c.ops, c.failed, c.notes...)
	var sl []slice
	for i := 0; i < timedSlices; i++ {
		s := b.timedSlice(d/timedSlices, b.w.clients)
		t.add(len(s.latencies), s.failed)
		sl = append(sl, s)
	}
	return endToEndValues(setupS, c, sl), t, nil
}

// counterValues are the per-layer metrics read off the counted pass.
func counterValues(b *bed, c *counted) values {
	ops := float64(c.ops)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := values{
		"plancache.hit_ratio":              ratio(float64(c.plans.Hits), float64(c.plans.Hits+c.plans.Misses)),
		"plancache.stale":                  float64(c.plans.Stale),
		"plancache.fallbacks":              float64(c.plans.Fallbacks),
		"plancache.evictions":              float64(c.plans.Evictions),
		"plancache.invalidations":          float64(c.plans.Invalidations),
		"opt.plan_flip_ratio":              float64(c.flips) / ops,
		"opt.plan_regressions":             float64(c.regressions),
		"opt.sim_speedup_pct":              100 * ratio(float64(c.sumT-c.sumTPrime), float64(c.sumT)),
		"exec.rows_touched_per_result_row": ratio(float64(c.rowsTouched), float64(c.rowsReturned)),
		"exec.batches_per_query":           float64(c.batches) / ops,
		"exec.mem_peak_kb":                 float64(c.memPeak) / 1024,
		"exec.parallel_degree":             float64(c.parallelism),
		"storage.hit_ratio":                ratio(float64(c.pool.hits), float64(c.pool.logical)),
		"storage.logical_reads_per_query":  float64(c.pool.logical) / ops,
		"storage.phys_reads_per_query":     float64(c.physReads) / ops,
		"storage.evictions_per_query":      float64(c.pool.evictions) / ops,
		"storage.random_read_share":        ratio(float64(c.pool.random), float64(c.pool.physical)),
		"storage.pool_waits":               float64(c.pool.waits),
		"core.dpc_err_max_pct":             c.dpcErrMaxPct,
		"core.monitors_per_query":          float64(c.monitors) / ops,
		"core.shed_monitors":               float64(c.shed),
		"core.feedback_entries":            float64(c.feedbackEntries),
		"engine.queued_ops":                float64(c.queued),
		"trace.spans_per_query":            float64(c.engineSpans) / ops,
		"bench.fail_ratio":                 float64(c.failed) / ops,
		"bench.gomaxprocs":                 float64(runtime.GOMAXPROCS(0)),
		"bench.cpus":                       float64(runtime.NumCPU()),
		"bench.clients":                    float64(b.w.clients),
		"bench.dataset_pages":              float64(b.dataPages),
	}
	q := sortedCopy(c.qerrs)
	v["opt.dpc_qerror_p50"] = percentile(q, 0.5)
	v["opt.dpc_qerror_max"] = percentile(q, 1)
	return v
}

// variant returns opts with one knob changed, leaving the workload's own
// options untouched.
func variant(opts *pagefeedback.RunOptions, change func(*pagefeedback.RunOptions)) *pagefeedback.RunOptions {
	c := *opts
	change(&c)
	return &c
}

// pairValues runs the interleaved on/off experiments that apply to the
// workload; the rest read 0.
func pairValues(b *bed, budget time.Duration) (values, error) {
	v := values{"core.monitor_overhead_pct": 0, "trace.engine_overhead_pct": 0, "exec.parallel_speedup": 0}
	if b.w.loop {
		return v, nil
	}
	type pair struct {
		metric string
		ops    []op
		a, b   *pagefeedback.RunOptions
		value  func(ratio float64) float64
	}
	pct := func(r float64) float64 { return 100 * (r - 1) }
	var pairs []pair
	switch b.w.name {
	case "scan_plain", "scan_monitored":
		plain := &pagefeedback.RunOptions{WarmCache: true}
		pairs = append(pairs, pair{"core.monitor_overhead_pct", b.ops, plain,
			variant(plain, func(o *pagefeedback.RunOptions) { o.MonitorAll, o.SampleFraction = true, sampleFraction }), pct})
		if b.w.name == "scan_plain" {
			pairs = append(pairs, pair{"trace.engine_overhead_pct", b.ops, plain,
				variant(plain, func(o *pagefeedback.RunOptions) { o.Trace = true }), pct})
		}
	case "analytic_diag":
		pairs = append(pairs, pair{"trace.engine_overhead_pct", b.ops,
			variant(b.w.opts, func(o *pagefeedback.RunOptions) { o.Trace = false }), b.w.opts, pct})
		if b.w.opts.Parallelism > 1 {
			// Serial time over parallel time on the joins: above 1 is a gain.
			pairs = append(pairs, pair{"exec.parallel_speedup", b.ops[:8], b.w.opts,
				variant(b.w.opts, func(o *pagefeedback.RunOptions) { o.Parallelism = 0 }),
				func(r float64) float64 { return r }})
		}
	}
	for _, p := range pairs {
		r, err := b.pairedRatio(p.ops, p.a, p.b, budget/time.Duration(len(pairs)))
		if err != nil {
			return nil, err
		}
		v[p.metric] = p.value(r)
	}
	return v, nil
}

// runLayers is a driver run with --trace 1: one set-up, warm-up, counted
// pass, then the traced pass. The trace is written under dir.
func runLayers(w *workload, rows int, seed int64, d time.Duration, dir string) (values, *tally, error) {
	b, _, err := prepare(w, rows, seed, 1)
	if err != nil {
		return nil, nil, err
	}
	if err := b.warmUp(); err != nil {
		return nil, nil, err
	}
	c := b.countedPass()
	v, t, err := layerValues(b, c, d, dir)
	if err != nil {
		return nil, nil, err
	}
	t.add(c.ops, c.failed, c.notes...)
	return v, t, nil
}

// layerValues is the traced pass on a warm bed whose counted pass is c: a
// short untraced serial baseline, the traced replay (half of d), the paired
// experiments (a quarter), the probes and the fallbacks.
func layerValues(b *bed, c *counted, d time.Duration, dir string) (values, *tally, error) {
	t := &tally{}
	v := counterValues(b, c)

	// Baseline and replay are both serial and start at the same op, so their
	// difference is the cost of recording spans and nothing else.
	first := b.next
	var base []slice
	for i := 0; i < 3; i++ {
		s := b.timedSlice(d/20, 1)
		t.add(len(s.latencies), s.failed)
		base = append(base, s)
	}
	bs := summarize(base)
	v["bench.p99_ms"] = bs.p99ms
	v["bench.machine_factor"] = bs.factor

	r, err := newReplay(b, first, bs.rawP50)
	if err != nil {
		return nil, nil, err
	}
	r.run(d / 2)
	t.add(4*r.slots, r.failed, r.notes...)
	v.merge(r.stageMetrics(bs.rawP50))
	if err := writeTrace(filepath.Join(dir, "trace-"+b.w.name+".json"), b.w.name, b.seed, r.rec.spans); err != nil {
		return nil, nil, err
	}

	pv, err := pairValues(b, d/4)
	if err != nil {
		return nil, nil, err
	}
	v.merge(pv)

	ps, err := newProbeSet(b)
	if err != nil {
		return nil, nil, err
	}
	probes, err := ps.run()
	if err != nil {
		return nil, nil, err
	}
	v.merge(probes)
	if err := fallbackStages(b, v); err != nil {
		return nil, nil, err
	}
	return v, t, nil
}
