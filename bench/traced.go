package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pagefeedback"
	"pagefeedback/internal/datagen"
	"pagefeedback/internal/exec"
	"pagefeedback/internal/opt"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/sql"
	"pagefeedback/internal/trace"
	"pagefeedback/internal/tuple"
)

// replay is the traced pass: every op is run four ways, each under its own
// root span — through the engine as the timed pass runs it, stage by stage,
// through Engine.RunQuery, and through Engine.Execute on the optimized plan.
type replay struct {
	b     *bed
	rec   *recorder
	tmpls []*sql.Template // the staged path binds these: Stmt hides its template
	// spread makes the four ways of one slot run four different ops, a
	// quarter of the list apart. An op that takes microseconds runs several
	// times faster the second time, on rows and pages the first run left in
	// the CPU's caches; spreading keeps every way as cold as the timed pass.
	// Over a whole cycle each op is still run every way, and the derived
	// metrics pair the ways by op.
	spread bool
	first  int // list index of the first slot's op: where the untraced baseline began
	slots  int
	failed int
	notes  []string
}

// spreadBelowMS is the op latency under which cache warmth between the
// ways of one slot would distort them.
const spreadBelowMS = 0.1

func newReplay(b *bed, first int, baselineP50ms float64) (*replay, error) {
	r := &replay{b: b, rec: newRecorder(), first: first, spread: baselineP50ms < spreadBelowMS && !b.w.loop}
	for _, s := range b.w.stmts {
		t, err := sql.ParseTemplate(b.eng.Catalog(), s)
		if err != nil {
			return nil, err
		}
		r.tmpls = append(r.tmpls, t)
	}
	return r, nil
}

// run replays slots until the budget is spent or the recorder is full (at
// least one slot).
func (r *replay) run(budget time.Duration) {
	n := len(r.b.ops)
	off := 0
	if r.spread {
		off = n / 4
	}
	ways := []func(i int) error{r.viaEngine, r.viaStages, r.viaRunQuery, r.viaExecute}
	deadline := time.Now().Add(budget)
	for s := 0; s == 0 || (time.Now().Before(deadline) && !r.rec.full()); s++ {
		for k, way := range ways {
			if err := way((r.first + s + k*off) % n); err != nil {
				r.failed++
				r.notes = append(r.notes, err.Error())
			}
		}
		r.slots++
	}
}

// monitorConfig is what MonitorAll resolves to for q under the given options,
// built here because Engine.Execute and exec.Build take it explicitly.
func monitorConfig(q *opt.Query, opts *pagefeedback.RunOptions) *exec.MonitorConfig {
	if opts == nil || !opts.MonitorAll {
		return nil
	}
	return &exec.MonitorConfig{Requests: monitorRequests(q), SampleFraction: opts.SampleFraction}
}

// viaEngine runs the op exactly as the timed pass does.
func (r *replay) viaEngine(i int) error {
	o := &r.b.ops[i]
	r.rec.beginRoot(stageEngine, i)
	out, err := r.b.run(o)
	r.rec.end()
	if !r.b.opOK(o, out, err) {
		return fmt.Errorf("%s: engine path failed: %v", o.sql, err)
	}
	return nil
}

// stagedRun is one query execution taken apart: optimize, (cold: reset the
// pool), build, run — each call into a layer under its own span.
func (r *replay) stagedRun(q *opt.Query, opts *pagefeedback.RunOptions) (*exec.Execution, []tuple.Row, error) {
	eng, rec := r.b.eng, r.rec
	if q.IsJoin() {
		rec.begin(stageOptJoin)
	} else {
		rec.begin(stageOptSingle)
	}
	node, err := eng.Optimizer().Optimize(q)
	rec.end()
	if err != nil {
		return nil, nil, err
	}
	if opts == nil || !opts.WarmCache {
		rec.begin(stageReset)
		err = eng.Pool().Reset()
		rec.end()
		if err != nil {
			return nil, nil, err
		}
	}
	rec.begin(stageBuild)
	ctx := exec.NewContext(eng.Pool())
	ctx.Vectorized = true
	if opts != nil {
		if opts.Parallelism > 1 {
			ctx.Parallelism = opts.Parallelism
		}
		if opts.MemBudget > 0 {
			ctx.Mem = exec.NewMemTracker(opts.MemBudget)
		}
		if opts.Trace {
			ctx.Trace = trace.NewRecorder(0)
		}
	}
	ctx.BindContext(context.Background())
	ex, err := exec.Build(ctx, node, monitorConfig(q, opts))
	rec.end()
	if err != nil {
		return nil, nil, err
	}
	rec.begin(stageRun)
	rows, err := ex.Run()
	rec.end()
	return ex, rows, err
}

func checkRows(o *op, rows []tuple.Row) error {
	if !quickCheck(o, &pagefeedback.Result{Rows: rows}) {
		return fmt.Errorf("%s: staged replay answered wrongly", o.sql)
	}
	return nil
}

// parse is the staged path's front end: bind a prepared op, parse and key a
// literal one (the engine renders the key of a literal query on every run;
// a template carries its key).
func (r *replay) parse(o *op) (*opt.Query, error) {
	rec := r.rec
	if o.stmt >= 0 {
		rec.begin(stageBind)
		q, err := r.tmpls[o.stmt].Bind(o.args)
		rec.end()
		return q, err
	}
	rec.begin(stageParse)
	q, err := sql.Parse(r.b.eng.Catalog(), o.sql)
	rec.end()
	if err == nil {
		rec.begin(stageKey)
		_ = sql.QueryKey(q)
		rec.end()
	}
	return q, err
}

// viaStages replays the op one call into a layer at a time.
func (r *replay) viaStages(i int) error {
	o := &r.b.ops[i]
	r.rec.beginRoot(stageStaged, i)
	defer r.rec.end()
	q, err := r.parse(o)
	if err != nil {
		return err
	}
	if r.b.w.loop {
		return r.loopStages(o, q)
	}
	_, rows, err := r.stagedRun(q, r.b.w.opts)
	if err != nil {
		return err
	}
	return checkRows(o, rows)
}

// loopStages is the feedback loop with the same state transitions as
// bed.runLoop, every query run taken apart.
func (r *replay) loopStages(o *op, q *opt.Query) error {
	b, rec := r.b, r.rec
	rec.begin(stageClear)
	b.eng.Optimizer().ClearInjections()
	b.eng.Optimizer().ClearDPCHistograms()
	rec.end()
	_, rows, err := r.stagedRun(q, nil)
	if err != nil {
		return err
	}
	if err := checkRows(o, rows); err != nil {
		return err
	}
	rec.begin(stageInjectCard)
	err = b.injectCardinality(q, &pagefeedback.Result{Rows: rows})
	rec.end()
	if err != nil {
		return err
	}
	ex, rows, err := r.stagedRun(q, &pagefeedback.RunOptions{MonitorAll: true, SampleFraction: sampleFraction})
	if err != nil {
		return err
	}
	if err := checkRows(o, rows); err != nil {
		return err
	}
	// ApplyFeedback reads the monitors' results and the query, nothing else.
	rec.begin(stageApply)
	b.eng.ApplyFeedback(&pagefeedback.Result{Rows: rows, Query: q, DPC: ex.DPCResults()})
	rec.end()
	// The loop itself never reads the feedback cache back; this times the
	// call the way a session reusing feedback across queries would make it.
	rec.begin(stageFromCache)
	_ = b.eng.InjectFromCache(q)
	rec.end()
	if _, rows, err = r.stagedRun(q, nil); err != nil {
		return err
	}
	return checkRows(o, rows)
}

// planned parses and optimizes the op outside any span, from a clean
// feedback state for loops.
func (r *replay) planned(o *op) (*opt.Query, plan.Node, error) {
	var q *opt.Query
	var err error
	if o.stmt >= 0 {
		q, err = r.tmpls[o.stmt].Bind(o.args)
	} else {
		q, err = r.b.eng.ParseQuery(o.sql)
	}
	if err != nil {
		return nil, nil, err
	}
	if r.b.w.loop {
		r.b.eng.Optimizer().ClearInjections()
		r.b.eng.Optimizer().ClearDPCHistograms()
	}
	node, err := r.b.eng.PlanQuery(q)
	return q, node, err
}

// viaRunQuery times Engine.RunQuery: resolve the plan (a cache hit on the
// warm workloads, a full optimize after feedback moved the epoch), then
// execute.
func (r *replay) viaRunQuery(i int) error {
	o := &r.b.ops[i]
	q, _, err := r.planned(o)
	if err != nil {
		return err
	}
	r.rec.beginRoot(stageRunQuery, i)
	res, err := r.b.eng.RunQuery(q, r.b.w.opts)
	r.rec.end()
	if err != nil || !quickCheck(o, res) {
		return fmt.Errorf("%s: RunQuery failed: %v", o.sql, err)
	}
	return nil
}

// viaExecute times Engine.Execute on the plan RunQuery would resolve.
func (r *replay) viaExecute(i int) error {
	o := &r.b.ops[i]
	q, node, err := r.planned(o)
	if err != nil {
		return err
	}
	mcfg := monitorConfig(q, r.b.w.opts)
	r.rec.beginRoot(stageExecute, i)
	res, err := r.b.eng.Execute(node, mcfg, r.b.w.opts)
	r.rec.end()
	if err != nil || !quickCheck(o, res) {
		return fmt.Errorf("%s: Execute failed: %v", o.sql, err)
	}
	return nil
}

// stageMetrics turns the recorded spans into the span-derived per-layer
// metrics. baselineP50ms is the untraced median latency of the same ops run
// serially, which the traced engine-path spans are compared with.
func (r *replay) stageMetrics(baselineP50ms float64) values {
	vs := visits(r.rec.spans)
	// all[s] pools a stage's per-visit totals; byOp[s][op] is that stage's
	// median over the visits of one op.
	var all [numStages][]float64
	var perOp [numStages]map[int32][]float64
	for s := range perOp {
		perOp[s] = make(map[int32][]float64)
	}
	for _, v := range vs {
		for s := stage(0); s < numStages; s++ {
			if v.has[s] {
				all[s] = append(all[s], v.self[s])
				perOp[s][v.op] = append(perOp[s][v.op], v.self[s])
			}
		}
	}
	med := func(s stage) float64 { return median(all[s]) }
	// paired is the median over ops of f applied to the op's own stage
	// medians, for ops that were run every way f needs.
	paired := func(f func(m func(stage) float64) float64, need ...stage) float64 {
		var out []float64
		for op := range perOp[need[0]] {
			ok := true
			for _, s := range need {
				if _, has := perOp[s][op]; !has {
					ok = false
				}
			}
			if ok {
				out = append(out, f(func(s stage) float64 { return median(perOp[s][op]) }))
			}
		}
		return median(out)
	}

	runsPerOp := 1.0
	if r.b.w.loop {
		runsPerOp = 3
	}
	v := values{
		"sql.parse_us":                med(stageParse),
		"sql.bind_us":                 med(stageBind),
		"sql.query_key_us":            med(stageKey),
		"opt.optimize_single_us":      med(stageOptSingle),
		"opt.optimize_join_us":        med(stageOptJoin),
		"exec.build_us":               med(stageBuild),
		"exec.run_us":                 med(stageRun),
		"engine.apply_feedback_us":    med(stageApply),
		"engine.inject_from_cache_us": med(stageFromCache),
		// What resolving the plan costs: RunQuery minus Execute on the same op.
		"plancache.plan_us": paired(func(m func(stage) float64) float64 {
			return m(stageRunQuery) - m(stageExecute)
		}, stageRunQuery, stageExecute),
		// Admission, cold reset, stats assembly, metrics: Execute minus the
		// build and run it wraps (a loop's staged visit holds three runs).
		"engine.execute_overhead_us": paired(func(m func(stage) float64) float64 {
			return m(stageExecute) - (m(stageBuild)+m(stageRun))/runsPerOp
		}, stageExecute, stageBuild, stageRun),
	}

	// Accounting, op by op: what the stages add up to as a share of the same
	// op's traced engine-path latency. A warm query is its front end plus
	// RunQuery (= plan + build + run + overhead, by the two definitions
	// above); a loop is every staged stage but the InjectFromCache call it
	// does not make, the remainder being what Execute adds around each run.
	front := []stage{stageParse, stageBind, stageKey}
	loop := []stage{stageClear, stageOptSingle, stageOptJoin, stageReset, stageBuild, stageRun, stageInjectCard, stageApply}
	v["bench.stage_coverage_pct"] = 100 * paired(func(m func(stage) float64) float64 {
		sum := 0.0
		for _, s := range front {
			sum += m(s)
		}
		if r.b.w.loop {
			for _, s := range loop {
				sum += m(s)
			}
		} else {
			sum += m(stageRunQuery)
		}
		return sum / m(stageEngine)
	}, stageEngine, stageStaged, stageRunQuery)
	v["exec.run_share_pct"] = 100 * paired(func(m func(stage) float64) float64 {
		return m(stageRun) / m(stageEngine)
	}, stageEngine, stageRun)
	if baselineP50ms > 0 {
		v["bench.trace_overhead_pct"] = 100 * (med(stageEngine)/1e3 - baselineP50ms) / baselineP50ms
	}
	return v
}

// pairedRatio runs each op under optsA then optsB, back to back, cycling the
// list until the budget is spent, and returns the median of tB/tA. Pairs are
// interleaved because the machine's speed drifts between slices.
func (b *bed) pairedRatio(ops []op, optsA, optsB *pagefeedback.RunOptions, budget time.Duration) (float64, error) {
	var ratios []float64
	deadline := time.Now().Add(budget)
	// At least the whole list once, then whole pairs while the budget lasts.
	for i := 0; i < len(ops) || time.Now().Before(deadline); i++ {
		o := &ops[i%len(ops)]
		var t [2]time.Duration
		for k, opts := range []*pagefeedback.RunOptions{optsA, optsB} {
			start := time.Now()
			res, err := b.eng.Query(o.sql, opts)
			t[k] = time.Since(start)
			if err != nil || !quickCheck(o, res) {
				return 0, fmt.Errorf("%s: paired run failed: %v", o.sql, err)
			}
		}
		ratios = append(ratios, float64(t[1])/float64(t[0]))
	}
	return median(ratios), nil
}

// fallbackStages fills the stage timings a workload has no op for, by timing
// the same call on a canonical statement: Template.Bind where nothing is
// prepared, Optimize of a join where nothing joins, ApplyFeedback and
// InjectFromCache where nothing feeds back. It runs last and leaves
// injections behind.
func fallbackStages(b *bed, v values) error {
	eng := b.eng
	rng := rand.New(rand.NewSource(b.seed + 4))
	if v["sql.bind_us"] == 0 {
		tmpl, err := sql.ParseTemplate(eng.Catalog(), stmtRange)
		if err != nil {
			return err
		}
		ns, err := perUnit(func() (int, error) {
			const n = 500
			for i := 0; i < n; i++ {
				lo := rng.Int63n(int64(b.ds.Rows - 3))
				q, err := tmpl.Bind([]tuple.Value{tuple.Int64(lo), tuple.Int64(lo + 2)})
				if err != nil {
					return 0, err
				}
				sink += len(q.Pred.Atoms)
			}
			return n, nil
		})
		if err != nil {
			return err
		}
		v["sql.bind_us"] = ns / 1e3
	}
	if v["opt.optimize_join_us"] == 0 {
		var joins []*opt.Query
		for _, j := range datagen.JoinQueries(b.ds, 8, 0.002, 0.05, b.seed) {
			q, err := eng.ParseQuery(j.SQL)
			if err != nil {
				return err
			}
			joins = append(joins, q)
		}
		ns, err := perUnit(func() (int, error) {
			for _, q := range joins {
				node, err := eng.Optimizer().Optimize(q)
				if err != nil {
					return 0, err
				}
				sink += len(node.Label())
			}
			return len(joins), nil
		})
		if err != nil {
			return err
		}
		v["opt.optimize_join_us"] = ns / 1e3
	}
	if v["engine.apply_feedback_us"] == 0 {
		scans := datagen.SingleTableQueries(b.ds, 2, 0.01, 0.10, b.seed)
		var apply, inject []float64
		for _, s := range scans {
			q, err := eng.ParseQuery(s.SQL)
			if err != nil {
				return err
			}
			res, err := eng.RunQuery(q, &pagefeedback.RunOptions{WarmCache: true, MonitorAll: true, SampleFraction: sampleFraction})
			if err != nil {
				return err
			}
			start := time.Now()
			eng.ApplyFeedback(res)
			apply = append(apply, float64(time.Since(start))/1e3)
			start = time.Now()
			sink += eng.InjectFromCache(q)
			inject = append(inject, float64(time.Since(start))/1e3)
		}
		v["engine.apply_feedback_us"] = median(apply)
		v["engine.inject_from_cache_us"] = median(inject)
	}
	return nil
}
