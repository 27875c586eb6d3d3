package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pagefeedback"
	"pagefeedback/internal/core"
	"pagefeedback/internal/datagen"
	"pagefeedback/internal/exec"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/opt"
	"pagefeedback/internal/sql"
)

// bed is one workload set up and ready to measure: engine, dataset, op list
// with reference answers.
type bed struct {
	w     *workload
	seed  int64
	eng   *pagefeedback.Engine
	ds    *datagen.Dataset
	stmts []*pagefeedback.Stmt
	ops   []op

	setupSeconds float64
	dataPages    int64 // data pages of t + t1 + f
	next         int   // next op of the list the timed pass runs
}

// newBed builds the dataset, prepares statements, generates the op list and
// computes every reference answer. All of it is set-up time.
func newBed(w *workload, rows int, seed int64) (*bed, error) {
	start := time.Now()
	eng, ds, err := buildDataset(rows, seed, w.poolPages)
	if err != nil {
		return nil, err
	}
	b := &bed{w: w, seed: seed, eng: eng, ds: ds}
	for _, name := range []string{"t", "t1", "f"} {
		tab, _ := eng.Catalog().Table(name)
		b.dataPages += tab.NumPages()
	}
	for _, s := range w.stmts {
		st, err := eng.Prepare(s)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", s, err)
		}
		b.stmts = append(b.stmts, st)
	}
	b.ops = w.gen(ds, seed)
	if err := b.computeReference(); err != nil {
		return nil, err
	}
	b.setupSeconds = time.Since(start).Seconds()
	return b, nil
}

// monitored reports whether the workload's runs carry DPC monitors.
func (b *bed) monitored() bool { return b.w.loop || (b.w.opts != nil && b.w.opts.MonitorAll) }

// monitorRequests lists the DPC requests MonitorAll derives for q: the full
// predicate, each single-atom sub-predicate, and for a join both join DPCs.
// It mirrors Engine.monitorConfig, which is unexported; the counted pass
// fails any request the engine reports that this list lacks.
func monitorRequests(q *opt.Query) []exec.DPCRequest {
	var reqs []exec.DPCRequest
	add := func(table string, pred expr.Conjunction) {
		if len(pred.Atoms) == 0 {
			return
		}
		reqs = append(reqs, exec.DPCRequest{Table: table, Pred: pred})
		if len(pred.Atoms) > 1 {
			for i := range pred.Atoms {
				reqs = append(reqs, exec.DPCRequest{Table: table, Pred: pred.Subset(i)})
			}
		}
	}
	add(q.Table, q.Pred)
	if q.IsJoin() {
		add(q.Table2, q.Pred2)
		reqs = append(reqs,
			exec.DPCRequest{Table: q.Table, Join: true},
			exec.DPCRequest{Table: q.Table2, Join: true})
	}
	return reqs
}

// computeReference fills every op's expected result and, on monitored
// workloads, the exact DPC of every expression the monitors will report.
func (b *bed) computeReference() error {
	ref, err := newReference(b.eng, "t", "t1", "f")
	if err != nil {
		return err
	}
	for i := range b.ops {
		o := &b.ops[i]
		q, err := b.eng.ParseQuery(o.sql)
		if err != nil {
			return fmt.Errorf("op %d %q: %w", i, o.sql, err)
		}
		o.shape = sql.QueryKey(q)
		if o.want, err = ref.answer(q); err != nil {
			return err
		}
		if !b.monitored() {
			continue
		}
		o.dpc = make(map[string]int64)
		o.upper = make(map[string]int64)
		for _, req := range monitorRequests(q) {
			var d int64
			if req.Join {
				if d, err = ref.joinDPC(q, req.Table); err != nil {
					return err
				}
				own := q.Pred
				if strings.EqualFold(req.Table, q.Table2) {
					own = q.Pred2
				}
				rt, _ := ref.table(req.Table)
				up := rt.npages
				if len(own.Atoms) > 0 {
					if up, err = ref.dpc(req.Table, own); err != nil {
						return err
					}
				}
				o.upper[req.String()] = up
			} else if d, err = ref.dpc(req.Table, req.Pred); err != nil {
				return err
			}
			o.dpc[req.String()] = d
		}
	}
	return nil
}

// outcome is what running one op produced. Single queries fill res only; a
// feedback loop fills all three runs.
type outcome struct {
	pre *pagefeedback.Result // loop: counting run
	mon *pagefeedback.Result // loop: monitored run of plan P (T)
	res *pagefeedback.Result // the op's answer (loop: re-optimised run, T')
}

// run executes one op through the engine's public API.
func (b *bed) run(o *op) (outcome, error) {
	if b.w.loop {
		return b.runLoop(o)
	}
	var res *pagefeedback.Result
	var err error
	if o.stmt >= 0 {
		res, err = b.stmts[o.stmt].Query(o.args, b.w.opts)
	} else {
		res, err = b.eng.Query(o.sql, b.w.opts)
	}
	return outcome{res: res}, err
}

// runLoop is the paper's §V-B methodology for one query, cold cache on every
// run: forget earlier feedback, count exactly, inject the cardinality, run
// plan P monitored (T), feed the page counts back, re-optimise and run (T').
func (b *bed) runLoop(o *op) (outcome, error) {
	var out outcome
	q, err := b.eng.ParseQuery(o.sql)
	if err != nil {
		return out, err
	}
	b.eng.Optimizer().ClearInjections()
	b.eng.Optimizer().ClearDPCHistograms()
	if out.pre, err = b.eng.RunQuery(q, nil); err != nil {
		return out, err
	}
	if err := b.injectCardinality(q, out.pre); err != nil {
		return out, err
	}
	if out.mon, err = b.eng.RunQuery(q, &pagefeedback.RunOptions{MonitorAll: true, SampleFraction: sampleFraction}); err != nil {
		return out, err
	}
	b.eng.ApplyFeedback(out.mon)
	out.res, err = b.eng.RunQuery(q, nil)
	return out, err
}

// injectCardinality gives the optimizer the exact cardinality the counting
// run observed: the COUNT itself for a single table, the outer side's
// qualifying rows (one more counting query) for a join.
func (b *bed) injectCardinality(q *opt.Query, pre *pagefeedback.Result) error {
	if !q.IsJoin() {
		if len(q.Pred.Atoms) > 0 && len(pre.Rows) == 1 {
			b.eng.Optimizer().InjectCardinality(q.Table, q.Pred, float64(pre.Rows[0][0].Int))
		}
		return nil
	}
	if len(q.Pred2.Atoms) == 0 {
		return nil
	}
	cres, err := b.eng.Query(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", q.Table2, q.Pred2), nil)
	if err != nil {
		return err
	}
	if len(cres.Rows) == 1 {
		b.eng.Optimizer().InjectCardinality(q.Table2, q.Pred2, float64(cres.Rows[0][0].Int))
	}
	return nil
}

// quickCheck is the timed pass's answer check: row count, and the aggregate
// of a one-row result.
func quickCheck(o *op, res *pagefeedback.Result) bool {
	if res == nil || len(res.Rows) != o.want.rows {
		return false
	}
	if o.want.rows == 1 && len(res.Rows[0]) == 1 && res.Rows[0][0].Int != o.want.count {
		return false
	}
	return true
}

func (b *bed) opOK(o *op, out outcome, err error) bool {
	if err != nil || !quickCheck(o, out.res) {
		return false
	}
	if b.w.loop {
		return quickCheck(o, out.pre) && quickCheck(o, out.mon)
	}
	return true
}

// warm runs the first n ops of the list untimed (n <= 0: the whole list), so
// the pool, the plan cache and lazy set-up are filled before anything is
// measured.
func (b *bed) warm(n int) error {
	if n <= 0 || n > len(b.ops) {
		n = len(b.ops)
	}
	for i := 0; i < n; i++ {
		out, err := b.run(&b.ops[i])
		if err != nil {
			return fmt.Errorf("%s warm-up op %d: %w", b.w.name, i, err)
		}
		if !b.opOK(&b.ops[i], out, nil) {
			return fmt.Errorf("%s warm-up op %d (%s): wrong answer", b.w.name, i, b.ops[i].sql)
		}
	}
	return nil
}

// timedSlice runs the op list closed-loop from the given number of clients,
// which draw ops in list order from one cursor, continuing where the previous
// slice stopped. It stops when d is up, or earlier at the end of a cycle of
// the list when another cycle would not fit: a slice of whole cycles measures
// the same mix of ops every time, which matters where one op costs three
// times another. The machine's speed is read before and after (calib.go),
// inside d.
func (b *bed) timedSlice(d time.Duration, clients int) slice {
	runtime.GC()
	// A slice too short to be worth two readings (the tests') goes uncalibrated.
	calibrated := d > 4*calibCost
	var before float64
	if calibrated {
		before = machineFactor()
		d -= 2 * calibCost
	}
	type part struct {
		lat    []float64
		failed int
	}
	parts := make([]part, clients)
	n := int64(len(b.ops))
	first := int64(b.next)
	var cursor, cycleStart atomic.Int64 // ops drawn; start of the current cycle (ns from start)
	// The first client to see the slice's end cancels; the others stop
	// before their next op.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := time.Now()
				elapsed := t0.Sub(start)
				k := cursor.Add(1) - 1
				if k > 0 && (first+k)%n == 0 {
					if last := elapsed - time.Duration(cycleStart.Load()); elapsed+last > d {
						cursor.Add(-1)
						stop()
						return
					}
					cycleStart.Store(int64(elapsed))
				}
				if elapsed >= d {
					cursor.Add(-1)
					stop()
					return
				}
				o := &b.ops[(first+k)%n]
				out, err := b.run(o)
				p.lat = append(p.lat, float64(time.Since(t0))/1e6)
				if !b.opOK(o, out, err) {
					p.failed++
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	s := slice{seconds: time.Since(start).Seconds()}
	if calibrated {
		s.factor = (before + machineFactor()) / 2
	}
	for _, p := range parts {
		s.latencies = append(s.latencies, p.lat...)
		s.failed += p.failed
	}
	b.next = int((first + cursor.Load()) % n)
	return s
}

// counted is the counted pass: the op list run exactly once, single-threaded,
// with deltas of every counter the engine exposes.
type counted struct {
	ops    int
	failed int
	notes  []string // first few failures, for the log

	mallocs, allocBytes uint64
	simNS               int64 // sum of SimulatedTime (loops: T')
	physReads           int64 // sum of PhysicalReads (loops: of the T' run)
	sumT, sumTPrime     int64 // loops only
	regressions, flips  int   // loops with T' > T; loops whose plan changed
	shapes              map[string]int

	rowsTouched, rowsReturned int64
	batches, memPeak          int64
	queued                    int
	parallelism               int
	engineSpans               int

	monitors, shed int
	qerrs          []float64
	dpcErrMaxPct   float64

	pool            poolDelta
	plans           pagefeedback.PlanCacheStats
	feedbackEntries int
}

type poolDelta struct {
	logical, hits, evictions, waits int64
	physical, random                int64
}

func (c *counted) fail(format string, args ...interface{}) {
	c.failed++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// planShape renders the executed plan's operator labels as one line.
func planShape(s exec.OperatorStats) string {
	if len(s.Children) == 0 {
		return s.Label
	}
	kids := make([]string, len(s.Children))
	for i, c := range s.Children {
		kids[i] = planShape(c)
	}
	return s.Label + "[" + strings.Join(kids, ",") + "]"
}

// accessLabel is the first operator below the aggregate/sort/filter shell:
// the access path or join method a feedback loop can flip.
func accessLabel(s exec.OperatorStats) string {
	for len(s.Children) == 1 && (strings.HasPrefix(s.Label, "Aggregate") ||
		strings.HasPrefix(s.Label, "Sort") || strings.HasPrefix(s.Label, "Filter")) {
		s = s.Children[0]
	}
	return s.Label
}

// countedPass runs the list once and verifies everything. The allocation
// deltas bracket only the engine calls; results are kept and verified after,
// so checking costs the measured numbers nothing.
func (b *bed) countedPass() *counted {
	c := &counted{ops: len(b.ops), shapes: make(map[string]int)}
	outs := make([]outcome, len(b.ops))
	errs := make([]error, len(b.ops))

	poolBefore, diskBefore := b.eng.Pool().Stats(), b.eng.Pool().Disk().Stats()
	plansBefore := b.eng.PlanCacheStats()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range b.ops {
		outs[i], errs[i] = b.run(&b.ops[i])
	}
	runtime.ReadMemStats(&m1)
	c.mallocs, c.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	pool, disk := b.eng.Pool().Stats().Sub(poolBefore), b.eng.Pool().Disk().Stats().Sub(diskBefore)
	c.pool = poolDelta{logical: pool.LogicalReads, hits: pool.Hits, evictions: pool.Evictions,
		waits: pool.Waits, physical: disk.PhysicalReads, random: disk.RandomReads}
	after := b.eng.PlanCacheStats()
	c.plans = pagefeedback.PlanCacheStats{
		Hits: after.Hits - plansBefore.Hits, Misses: after.Misses - plansBefore.Misses,
		Stale: after.Stale - plansBefore.Stale, Evictions: after.Evictions - plansBefore.Evictions,
		Fallbacks: after.Fallbacks - plansBefore.Fallbacks, Invalidations: after.Invalidations - plansBefore.Invalidations,
		Entries: after.Entries,
	}
	c.feedbackEntries = b.eng.FeedbackCache().Len()

	for i := range b.ops {
		b.verify(c, &b.ops[i], outs[i], errs[i])
	}
	return c
}

// verify checks one op's outcome in full and folds its counters into c.
func (b *bed) verify(c *counted, o *op, out outcome, err error) {
	if err != nil {
		var qe *pagefeedback.QueryError
		if errors.As(err, &qe) {
			c.fail("%s: query error (%v): %v", o.sql, qe.Kind, err)
		} else {
			c.fail("%s: %v", o.sql, err)
		}
		return
	}
	ok := true
	runs := []*pagefeedback.Result{out.res}
	if b.w.loop {
		runs = []*pagefeedback.Result{out.pre, out.mon, out.res}
	}
	for _, r := range runs {
		if r == nil || len(r.Rows) != o.want.rows || hashRows(r.Rows) != o.want.hash {
			ok = false
			c.fail("%s: wrong result (want %d rows, count %d)", o.sql, o.want.rows, o.want.count)
			break
		}
	}
	if ok && o.want.rows > 1 && out.res.Query != nil && out.res.Query.OrderBy != "" && !ordered(out.res) {
		ok = false
		c.fail("%s: result not in ORDER BY order", o.sql)
	}
	monitored := out.res
	if b.w.loop {
		monitored = out.mon
	}
	if ok && !b.checkDPC(c, o, monitored) {
		ok = false
	}
	if !ok {
		return
	}

	rt := out.res.Stats.Runtime
	c.simNS += int64(out.res.SimulatedTime)
	c.physReads += rt.PhysicalReads
	c.rowsTouched += rt.RowsTouched
	c.rowsReturned += int64(len(out.res.Rows))
	c.batches += rt.BatchesProcessed
	if rt.MemPeakBytes > c.memPeak {
		c.memPeak = rt.MemPeakBytes
	}
	if rt.QueueWait > 0 {
		c.queued++
	}
	if rt.Parallelism > c.parallelism {
		c.parallelism = rt.Parallelism
	}
	if out.res.Trace != nil {
		c.engineSpans += len(out.res.Trace.Spans)
	}
	c.shapes[planShape(out.res.Stats.Plan)]++
	if b.w.loop {
		t, tp := int64(out.mon.SimulatedTime), int64(out.res.SimulatedTime)
		c.sumT += t
		c.sumTPrime += tp
		if tp > t {
			c.regressions++
		}
		if accessLabel(out.mon.Stats.Plan) != accessLabel(out.res.Stats.Plan) {
			c.flips++
		}
	}
}

// ordered reports whether a projection result is sorted on its ORDER BY column.
func ordered(res *pagefeedback.Result) bool {
	q := res.Query
	col := -1
	for i, c := range q.SelectCols {
		if strings.EqualFold(c, q.OrderBy) {
			col = i
		}
	}
	if col < 0 {
		return true // sort column not projected: nothing to check from outside
	}
	for i := 1; i < len(res.Rows); i++ {
		c := res.Rows[i-1][col].Compare(res.Rows[i][col])
		if (q.OrderDesc && c < 0) || (!q.OrderDesc && c > 0) {
			return false
		}
	}
	return true
}

// dpsTolerance is how far a DPSample estimate at fraction f may sit from a
// true count d: the sampled hit count is Binomial(d, f), and mean ± (6·sqrt(mean)
// + 6) holds it with probability beyond 1 − 1e-9 (§III-B, Chernoff).
func dpsTolerance(d, f float64) float64 {
	return (6*math.Sqrt(d*f) + 6) / f
}

// lcTolerance is six standard errors of linear counting with m bits at true
// count d (§III-A; Whang et al.: Var = m·(e^t − t − 1), t = d/m), plus two
// pages for the rounding of small counts.
func lcTolerance(d, m float64) float64 {
	t := d / m
	return 6*math.Sqrt(m*(math.Exp(t)-t-1)) + 2
}

// checkDPC holds every monitor result of a run to its mechanism's bound:
// exact mechanisms equal the brute-force DPC, DPSample and linear counting
// stay inside the tolerance above, and a bit-vector monitor (whose filter
// only ever admits extra rows) stays between the join's true DPC and the DPC
// of the inner side's own predicate, each widened by the sampling tolerance.
func (b *bed) checkDPC(c *counted, o *op, res *pagefeedback.Result) bool {
	if !b.monitored() {
		return true
	}
	ok := true
	for i, r := range res.DPC {
		if r.Mechanism == exec.MechUnsatisfiable {
			continue
		}
		c.monitors++
		if r.Degraded {
			c.shed++
			c.fail("%s: monitor %s degraded: %s", o.sql, r.Request, r.Reason)
			ok = false
			continue
		}
		key := r.Request.String()
		want, known := o.dpc[key]
		if !known {
			c.fail("%s: engine monitored %s, which the reference did not expect", o.sql, key)
			ok = false
			continue
		}
		d, got := float64(want), float64(r.DPC)
		tab, _ := b.eng.Catalog().Table(r.Request.Table)
		lo, hi := d, d
		switch {
		case r.Exact:
		case r.Mechanism == exec.MechDPSample:
			tol := dpsTolerance(d, sampleFraction)
			lo, hi = d-tol, d+tol
		case r.Mechanism == exec.MechLinearCount || r.Mechanism == exec.MechINLFetch:
			tol := lcTolerance(d, float64(core.DefaultLinearCounterBits(tab.NumPages())))
			lo, hi = d-tol, d+tol
		case r.Mechanism == exec.MechBitVector:
			up := float64(o.upper[key])
			lo, hi = d-dpsTolerance(d, sampleFraction), up+dpsTolerance(up, sampleFraction)
		default:
			c.fail("%s: unknown mechanism %q", o.sql, r.Mechanism)
			ok = false
			continue
		}
		if got < lo || got > hi {
			c.fail("%s: %s via %s = %d, reference %d, allowed [%.0f, %.0f]", o.sql, key, r.Mechanism, r.DPC, want, lo, hi)
			ok = false
		}
		if e := 100 * math.Abs(got-d) / math.Max(d, 1); e > c.dpcErrMaxPct {
			c.dpcErrMaxPct = e
		}
		if i < len(res.Stats.DPC) {
			c.qerrs = append(c.qerrs, qerror(float64(res.Stats.DPC[i].Estimated), got))
		}
	}
	return ok
}
