// Package pagefeedback is a storage-engine-to-optimizer reproduction of
// "Diagnosing Estimation Errors in Page Counts Using Execution Feedback"
// (Chaudhuri, Narasayya, Ramamurthy; ICDE 2008).
//
// The Engine bundles a paged storage engine with a simulated I/O clock, a
// cost-based optimizer whose distinct-page-count (DPC) estimates come from
// the classic Cardenas/Mackert–Lohman analytical model, and the paper's
// contribution: low-overhead monitors that observe the true DPC during
// query execution and feed it back into optimization.
//
// Typical flow:
//
//	eng := pagefeedback.New(pagefeedback.DefaultConfig())
//	... create and load tables, create indexes, eng.Analyze(...)
//	res, _ := eng.Query("SELECT COUNT(pad) FROM t WHERE c2 < 1000",
//	    &pagefeedback.RunOptions{MonitorAll: true})
//	... res.DPC compares the optimizer's estimate with the observed count
//	eng.ApplyFeedback(res)     // inject observed DPCs
//	res2, _ := eng.Query(...)  // re-optimized, typically a better plan
package pagefeedback

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/core"
	"pagefeedback/internal/exec"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/opt"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/sql"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/trace"
	"pagefeedback/internal/tuple"
)

// Config sets up an Engine.
type Config struct {
	// IOModel is the simulated device timing; the optimizer costs plans
	// with the same constants.
	IOModel storage.IOModel
	// PoolPages is the buffer pool capacity in 8 KB pages.
	PoolPages int
	// CPUPerRow is the simulated CPU cost per row processed.
	CPUPerRow time.Duration
	// MaxConcurrent bounds how many queries may execute at once; excess
	// queries wait in a FIFO admission queue. 0 disables admission control.
	MaxConcurrent int
	// MaxQueueDepth bounds the admission queue; arrivals beyond it are
	// rejected immediately with ErrKindOverload. 0 means unbounded.
	MaxQueueDepth int
	// PoolWaitBudget is how long a query waits for a buffer-pool frame to
	// free up before failing with pool exhaustion. 0 fails fast, preserving
	// the pool's historical behavior.
	PoolWaitBudget time.Duration
	// PlanCacheSize bounds the plan cache (optimized plan templates keyed by
	// query shape and selectivity bucket, invalidated by feedback epochs).
	// 0 uses the default capacity; negative disables plan caching.
	PlanCacheSize int
	// SlowQueryThreshold, when > 0, arms the slow-query log: every query is
	// executed with tracing on (the documented cost of the feature), and any
	// query whose wall time meets the threshold is captured — trace, plan,
	// and runtime stats — retrievable via SlowQueries.
	SlowQueryThreshold time.Duration
}

// DefaultConfig returns a 2007-era disk model, a 64 MB buffer pool,
// 1 µs/row CPU, no admission limit, and a 25 ms pool-wait budget.
func DefaultConfig() Config {
	return Config{
		IOModel:        storage.DefaultIOModel(),
		PoolPages:      8192,
		CPUPerRow:      time.Microsecond,
		PoolWaitBudget: 25 * time.Millisecond,
	}
}

// Engine is one database instance.
type Engine struct {
	cfg   Config
	disk  *storage.DiskManager
	pool  *storage.BufferPool
	cat   *catalog.Catalog
	opt   *opt.Optimizer
	cache *core.FeedbackCache
	gate  *admissionGate
	met   *engineMetrics
	slow  *slowLog

	// epochs tracks per-table feedback epochs; plans caches optimized plan
	// templates validated against them. plans is nil when caching is
	// disabled.
	epochs *core.EpochTracker
	plans  *planCache
}

// New creates an empty engine.
func New(cfg Config) *Engine {
	if cfg.PoolPages < 64 {
		cfg.PoolPages = 64
	}
	if cfg.CPUPerRow <= 0 {
		cfg.CPUPerRow = time.Microsecond
	}
	if cfg.IOModel.RandomRead == 0 {
		cfg.IOModel = storage.DefaultIOModel()
	}
	disk := storage.NewDiskManager(cfg.IOModel)
	pool := storage.NewBufferPool(disk, cfg.PoolPages)
	pool.SetWaitBudget(cfg.PoolWaitBudget)
	cat := catalog.New(pool)
	e := &Engine{
		cfg:    cfg,
		disk:   disk,
		pool:   pool,
		cat:    cat,
		gate:   newAdmissionGate(cfg.MaxConcurrent, cfg.MaxQueueDepth),
		opt:    opt.New(cat, cfg.IOModel, cfg.CPUPerRow),
		cache:  core.NewFeedbackCache(),
		met:    newEngineMetrics(),
		slow:   new(slowLog),
		epochs: core.NewEpochTracker(),
	}
	if cfg.PlanCacheSize >= 0 {
		size := cfg.PlanCacheSize
		if size == 0 {
			size = defaultPlanCacheSize
		}
		e.plans = newPlanCache(size)
	}
	// Every feedback mutation in the optimizer — injections, Analyze,
	// DropTableFeedback, histogram/curve observations — bumps the affected
	// table's epoch, invalidating cached plans built from the old state.
	e.opt.SetInvalidationHook(e.bumpPlanEpoch)
	// Buffer-pool frame waits feed the pool-wait histogram directly from
	// the storage layer; the observer is a pair of atomic adds, cheap
	// enough for the (rare) blocked path it runs on.
	pool.SetWaitObserver(func(d time.Duration) {
		e.met.poolFrameWait.Observe(d.Microseconds())
	})
	return e
}

// tableVersion returns the modification counter of the named table (0 if
// it does not exist).
func (e *Engine) tableVersion(name string) int64 {
	if tab, ok := e.cat.Table(name); ok {
		return tab.Version()
	}
	return 0
}

// InvalidateFeedback drops every learned statistic, injection, and cache
// entry for the table. The engine calls it automatically when data loads
// through Load; callers mutating tables through the catalog directly should
// call it themselves — stale page counts carry false confidence (§VI).
func (e *Engine) InvalidateFeedback(table string) {
	e.cache.DropTable(table)
	e.opt.DropTableFeedback(table)
}

// Catalog exposes the table catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Optimizer exposes the optimizer (for injections and estimates).
func (e *Engine) Optimizer() *opt.Optimizer { return e.opt }

// FeedbackCache exposes the (expression, cardinality, DPC) store.
func (e *Engine) FeedbackCache() *core.FeedbackCache { return e.cache }

// Pool exposes the buffer pool (for cache control in experiments).
func (e *Engine) Pool() *storage.BufferPool { return e.pool }

// Analyze builds optimizer statistics for the named tables.
func (e *Engine) Analyze(tables ...string) error {
	for _, t := range tables {
		if err := e.opt.AnalyzeTable(t); err != nil {
			return err
		}
	}
	return nil
}

// ParseQuery parses SQL text against the catalog.
func (e *Engine) ParseQuery(src string) (*opt.Query, error) {
	return sql.Parse(e.cat, src)
}

// PlanQuery optimizes a parsed query.
func (e *Engine) PlanQuery(q *opt.Query) (plan.Node, error) {
	return e.opt.Optimize(q)
}

// RunOptions control one execution.
type RunOptions struct {
	// Monitor configures explicit DPC monitoring.
	Monitor *exec.MonitorConfig
	// MonitorAll auto-derives monitor requests from the query: every
	// single-column sub-predicate with a matching index, the full
	// predicate, and — for joins — the inner join DPC. This is the "give
	// me everything a DBA would look at" mode.
	MonitorAll bool
	// SampleFraction overrides the DPSample fraction for MonitorAll.
	SampleFraction float64
	// WarmCache skips the cold-cache reset before execution. The paper
	// measures cold (§V-B); warm runs are for overhead experiments.
	WarmCache bool
	// Timeout bounds the query's wall-clock execution time. Zero means no
	// limit. It composes with any deadline already on the caller's context
	// (whichever fires first wins); on expiry the query aborts with a
	// *QueryError of kind ErrKindTimeout.
	Timeout time.Duration
	// Parallelism is the intra-query parallel degree: full scans (and
	// hash-join probes over them) split into that many partitioned workers.
	// 0 or 1 runs serially; values above GOMAXPROCS are clamped to it.
	// Monitored feedback (DPC, cardinalities, quarantine state) is
	// identical to a serial run; only row order of unsorted results may
	// differ.
	Parallelism int
	// MemBudget bounds the bytes this query's blocking operators may
	// materialize (hash-join build sides, sorts, group states, parallel-scan
	// arenas, RID sets). Exceeding it aborts the query with a *QueryError of
	// kind ErrKindMemory. 0 means unlimited.
	MemBudget int64
	// Trace records a per-query span tree (operator open/next/close phases,
	// parallel partitions, admission wait, storage events) into
	// Result.Trace. Off by default; the disabled path costs one nil check
	// per emission site. Tracing never changes results, DPC feedback, or
	// the statistics document — only Result.Trace and the traced-only
	// OperatorStats fields (Wall, Calls) are populated.
	Trace bool

	// failMonitors is the fault-injection seam for tests: MonitorAll
	// monitors whose mechanism name appears here panic on first
	// observation, exercising the quarantine path.
	failMonitors []string
}

// traced reports whether the options request span recording.
func (o *RunOptions) traced() bool { return o != nil && o.Trace }

// parallelDegree clamps the requested degree to [0, GOMAXPROCS].
func (o *RunOptions) parallelDegree() int {
	if o == nil || o.Parallelism <= 1 {
		return 0
	}
	if p := runtime.GOMAXPROCS(0); o.Parallelism > p {
		return p
	}
	return o.Parallelism
}

// Result is the outcome of one execution.
type Result struct {
	// Rows are the rows the plan produced.
	Rows []tuple.Row
	// Plan is the executed plan.
	Plan plan.Node
	// Query is the parsed query (nil when Execute was called directly).
	Query *opt.Query
	// DPC holds the monitored distinct page counts, with the optimizer's
	// estimates filled in.
	DPC []exec.DPCResult
	// Stats is the statistics-xml document.
	Stats exec.ExecutionStats
	// SimulatedTime = simulated I/O + simulated CPU — the "execution
	// time" of every experiment.
	SimulatedTime time.Duration
	// WallTime is the real time spent executing (for monitoring-overhead
	// measurements).
	WallTime time.Duration
	// PlanCacheHit reports whether the plan came from the engine's plan
	// cache (instantiated from a template, optimizer skipped).
	PlanCacheHit bool
	// Trace is the recorded span tree (nil unless the run was traced via
	// RunOptions.Trace or an armed slow-query log).
	Trace *trace.Trace
	// Operators is the number of operators in the executed physical plan —
	// the count Trace.Validate checks lifetime spans against.
	Operators int
}

// Query parses, optimizes, and executes SQL in one call. It is
// QueryContext with a background context.
func (e *Engine) Query(src string, opts *RunOptions) (*Result, error) {
	return e.QueryContext(context.Background(), src, opts)
}

// QueryContext parses, optimizes, and executes SQL under ctx: cancelling
// the context (or exceeding its deadline / opts.Timeout) aborts the query
// with a *QueryError. Panics anywhere in the pipeline are recovered here
// and surface the same way; the engine remains usable afterward.
func (e *Engine) QueryContext(ctx context.Context, src string, opts *RunOptions) (res *Result, err error) {
	defer recoverQueryPanic(&err)
	q, err := e.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return e.RunQueryContext(ctx, q, opts)
}

// RunQuery optimizes and executes a parsed query (background context).
func (e *Engine) RunQuery(q *opt.Query, opts *RunOptions) (*Result, error) {
	return e.RunQueryContext(context.Background(), q, opts)
}

// RunQueryContext optimizes and executes a parsed query under ctx. When the
// plan cache holds a valid template for the query's shape and selectivity
// bucket, the optimizer is skipped: the template is instantiated with the
// query's constants and executed directly.
func (e *Engine) RunQueryContext(ctx context.Context, q *opt.Query, opts *RunOptions) (res *Result, err error) {
	defer recoverQueryPanic(&err)
	node, hit, err := e.planForQuery(q)
	if err != nil {
		return nil, err
	}
	res, err = e.ExecuteContext(ctx, node, monitorConfig(q, opts), opts)
	if err != nil {
		return nil, err
	}
	res.Query = q
	res.PlanCacheHit = hit
	res.Stats.Runtime.PlanCacheHit = hit
	if hit {
		e.met.planCacheHits.Inc()
	} else {
		e.met.planCacheMisses.Inc()
	}
	e.fillEstimates(q, res)
	return res, nil
}

// feedbackExprs calls fn with each expression the engine monitors and
// keeps feedback for on one side of a query: the full predicate, then —
// when it has more than one atom — each single-atom sub-predicate (a
// candidate index's view of the query).
func feedbackExprs(table string, pred expr.Conjunction, fn func(table string, pred expr.Conjunction)) {
	if len(pred.Atoms) == 0 {
		return
	}
	fn(table, pred)
	if len(pred.Atoms) > 1 {
		for i := range pred.Atoms {
			fn(table, pred.Subset(i))
		}
	}
}

// monitorConfig resolves the effective monitor configuration.
func monitorConfig(q *opt.Query, opts *RunOptions) *exec.MonitorConfig {
	if opts == nil {
		return nil
	}
	if opts.Monitor != nil {
		return opts.Monitor
	}
	if !opts.MonitorAll || q == nil {
		return nil
	}
	cfg := &exec.MonitorConfig{
		SampleFraction: opts.SampleFraction,
		FailMonitors:   opts.failMonitors,
	}
	add := func(table string, pred expr.Conjunction) {
		cfg.Requests = append(cfg.Requests, exec.DPCRequest{Table: table, Pred: pred})
	}
	feedbackExprs(q.Table, q.Pred, add)
	if q.IsJoin() {
		feedbackExprs(q.Table2, q.Pred2, add)
		cfg.Requests = append(cfg.Requests,
			exec.DPCRequest{Table: q.Table, Join: true},
			exec.DPCRequest{Table: q.Table2, Join: true},
		)
	}
	return cfg
}

// Execute runs a physical plan (background context). The cache is cold
// unless opts.WarmCache.
func (e *Engine) Execute(node plan.Node, mcfg *exec.MonitorConfig, opts *RunOptions) (*Result, error) {
	return e.ExecuteContext(context.Background(), node, mcfg, opts)
}

// ExecuteContext runs a physical plan under goCtx. Execution errors —
// storage faults, recovered panics, cancellation — surface as *QueryError
// wrapping the cause; all operator Close paths run before it returns, so
// no page pins leak and the engine stays usable.
func (e *Engine) ExecuteContext(goCtx context.Context, node plan.Node, mcfg *exec.MonitorConfig, opts *RunOptions) (res *Result, err error) {
	// The metrics defer is registered before the panic boundary so it runs
	// after it and sees the classified error even on recovered panics.
	defer func() { e.met.noteQuery(res, err) }()
	defer recoverQueryPanic(&err)
	if goCtx == nil {
		goCtx = context.Background()
	}
	if opts != nil && opts.Timeout > 0 {
		var cancel context.CancelFunc
		goCtx, cancel = context.WithTimeout(goCtx, opts.Timeout)
		defer cancel()
	}
	if err := goCtx.Err(); err != nil {
		return nil, classifyQueryError(err)
	}
	// Tracing is on when requested explicitly or when the slow-query log is
	// armed (a slow query can only be captured if it was traced). The
	// recorder is created before admission so the queue wait falls inside
	// the trace epoch.
	var rec *trace.Recorder
	if opts.traced() || e.cfg.SlowQueryThreshold > 0 {
		rec = trace.NewRecorder(trace.DefaultCapacity)
	}
	// Admission: queue wait counts against the query's deadline because the
	// timeout context above wraps it.
	queueWait, queueDepth, err := e.gate.acquire(goCtx)
	if err != nil {
		return nil, err
	}
	defer e.gate.release()
	if rec != nil && queueWait > 0 {
		now := rec.Now()
		start := now - queueWait
		if start < 0 {
			start = 0
		}
		rec.Emit(trace.Span{Op: trace.NoOp, Kind: trace.KindAdmission, Start: start, End: now, N: int64(queueDepth)})
	}
	if opts == nil || !opts.WarmCache {
		if err := e.pool.Reset(); err != nil {
			return nil, classifyQueryError(fmt.Errorf("pagefeedback: cold-cache reset: %w", err))
		}
	}
	ctx := exec.NewContext(e.pool)
	ctx.CPUPerRow = e.cfg.CPUPerRow
	ctx.Trace = rec
	ctx.Parallelism = opts.parallelDegree()
	if opts != nil && opts.MemBudget > 0 {
		ctx.Mem = exec.NewMemTracker(opts.MemBudget)
	}
	ctx.BindContext(goCtx)
	ex, err := exec.Build(ctx, node, mcfg)
	if err != nil {
		return nil, classifyQueryError(err)
	}
	ioBefore := e.disk.Stats()
	poolBefore := e.pool.Stats()
	start := time.Now()
	rows, err := ex.Run()
	if err != nil {
		return nil, classifyQueryError(err)
	}
	wall := time.Since(start)
	io := e.disk.Stats().Sub(ioBefore)
	poolStats := e.pool.Stats().Sub(poolBefore)

	res = &Result{
		Rows:          rows,
		Plan:          node,
		DPC:           ex.DPCResults(),
		SimulatedTime: io.SimulatedIO + ctx.SimCPU(),
		WallTime:      wall,
		Operators:     ex.OperatorCount(),
	}
	if rec != nil {
		// Storage-side events are synthesized from the stat deltas as point
		// spans: under parallelism the underlying intervals overlap
		// arbitrarily, so only the aggregates are trustworthy.
		at := rec.Now()
		if poolStats.Waits > 0 {
			rec.Emit(trace.Span{Op: trace.NoOp, Kind: trace.KindPinWait, Start: at, End: at,
				N: poolStats.Waits, Total: poolStats.WaitTime})
		}
		if io.ReadRetries > 0 {
			rec.Emit(trace.Span{Op: trace.NoOp, Kind: trace.KindReadRetry, Start: at, End: at,
				N: io.ReadRetries})
		}
		res.Trace = rec.Finish()
	}
	res.Stats = exec.ExecutionStats{
		Plan: ex.StatsSnapshot(),
		Runtime: exec.RuntimeStats{
			SimulatedIO:      io.SimulatedIO,
			SimulatedCPU:     ctx.SimCPU(),
			SimulatedTotal:   res.SimulatedTime,
			PhysicalReads:    io.PhysicalReads,
			RandomReads:      io.RandomReads,
			LogicalReads:     poolStats.LogicalReads,
			RowsTouched:      ctx.RowsTouched(),
			RowsDecoded:      ctx.RowsDecoded(),
			ValuesDecoded:    ctx.ValuesDecoded(),
			Parallelism:      ctx.Parallelism,
			QueueWait:        queueWait,
			QueueDepth:       queueDepth,
			ReadRetries:      io.ReadRetries,
			PoolWaits:        poolStats.Waits,
			PoolWaitTime:     poolStats.WaitTime,
			MemPeakBytes:     ctx.Mem.Used(),
			BatchesProcessed: ctx.BatchesProcessed(),
		},
	}
	for _, r := range res.DPC {
		expression := r.Request.Pred.String()
		if r.Request.Join {
			expression = "<join predicate>"
		}
		if r.Degraded {
			res.Stats.Runtime.QuarantinedMonitors++
		}
		res.Stats.DPC = append(res.Stats.DPC, exec.PageCountXML{
			Table:      r.Request.Table,
			Expression: expression,
			Mechanism:  r.Mechanism,
			Actual:     r.DPC,
			Exact:      r.Exact,
			Degraded:   r.Degraded,
			Reason:     r.Reason,
		})
	}
	if t := e.cfg.SlowQueryThreshold; t > 0 && wall >= t {
		e.slow.note(res, time.Now())
		e.met.slowQueries.Inc()
	}
	return res, nil
}

// fillEstimates computes the optimizer's DPC estimate for each monitored
// expression, completing the estimated-vs-actual diagnostic.
func (e *Engine) fillEstimates(q *opt.Query, res *Result) {
	for i := range res.DPC {
		r := &res.DPC[i]
		var est float64
		var err error
		if r.Request.Join {
			inner, innerCol, outerRows := e.joinSide(q, r.Request.Table)
			if innerCol != "" {
				est, err = e.opt.EstimateINLDPC(inner, innerCol, outerRows)
			}
		} else {
			est, err = e.opt.EstimateDPC(r.Request.Table, r.Request.Pred)
		}
		if err == nil && i < len(res.Stats.DPC) {
			res.Stats.DPC[i].Estimated = int64(est + 0.5)
		}
	}
}

// joinSide resolves which side of q the table plays and the outer row
// estimate for INL costing.
func (e *Engine) joinSide(q *opt.Query, inner string) (table, innerCol string, outerRows float64) {
	if !q.IsJoin() {
		return "", "", 0
	}
	if strings.EqualFold(inner, q.Table) {
		rows, _ := e.opt.EstimateCardinality(q.Table2, q.Pred2)
		return q.Table, q.JoinCol, rows
	}
	if strings.EqualFold(inner, q.Table2) {
		rows, _ := e.opt.EstimateCardinality(q.Table, q.Pred)
		return q.Table2, q.JoinCol2, rows
	}
	return "", "", 0
}

// ApplyFeedback stores every observed DPC from res in the feedback cache
// and injects the value the cache keeps into the optimizer, so the next
// optimization of the same (or a predicate-equivalent) query uses the
// fed-back values — the §V evaluation methodology.
func (e *Engine) ApplyFeedback(res *Result) {
	for _, r := range res.DPC {
		if r.Mechanism == exec.MechUnsatisfiable || r.Degraded {
			// A quarantined monitor produced no observation; feeding its
			// zero DPC back would poison the optimizer.
			continue
		}
		if r.Request.Join {
			if res.Query != nil {
				_, innerCol, _ := e.joinSide(res.Query, r.Request.Table)
				if innerCol != "" && r.Cardinality > 0 {
					// Grow the learned join-DPC curve. The curve, not a
					// column-keyed injection, carries join feedback: an
					// injected scalar would go stale the moment the same
					// join ran at a different outer selectivity, while
					// the curve reproduces this observation exactly at
					// its own operating point and interpolates between
					// points elsewhere (§VI).
					e.opt.RecordJoinDPCObservation(r.Request.Table, innerCol, r.Cardinality, r.DPC)
				}
			}
			continue
		}
		e.learn(core.FeedbackEntry{
			Table:       r.Request.Table,
			Pred:        r.Request.Pred,
			Cardinality: r.Cardinality,
			DPC:         r.DPC,
			Mechanism:   r.Mechanism,
			Exact:       r.Exact,
		})
		// Feed the self-tuning page-count histogram when the predicate is
		// a single-column range (§VI): future queries with different
		// constants on the same column benefit without re-monitoring.
		if r.Cardinality > 0 {
			cols := r.Request.Pred.Columns()
			if len(cols) == 1 && len(r.Request.Pred.Atoms) == 1 {
				a := r.Request.Pred.Atoms[0]
				if lo, hi, ok := core.ObservationFromAtomRange(a.Op.String(), a.Val, a.Val2); ok {
					e.opt.RecordDPCObservation(r.Request.Table, cols[0], lo, hi, r.Cardinality, r.DPC)
				}
			}
		}
	}
}

// InjectFromCache looks up the feedback cache for the query's predicates —
// the full conjunction and each single-atom sub-predicate, since the
// latter drive index-fetch costing — and injects any hits observed at the
// table's current version: reuse of feedback across similar queries
// (§II-C). It returns the number of injected values.
func (e *Engine) InjectFromCache(q *opt.Query) int {
	n := 0
	inject := func(table string, pred expr.Conjunction) {
		if entry, ok := e.cache.Lookup(table, pred, e.tableVersion(table)); ok {
			e.opt.InjectDPC(table, pred, float64(entry.DPC))
			n++
		}
	}
	feedbackExprs(q.Table, q.Pred, inject)
	if q.IsJoin() {
		feedbackExprs(q.Table2, q.Pred2, inject)
	}
	return n
}

// learn stores one observation, stamped with its table's current version,
// and injects the page count the cache kept — the stored exact count, when
// an estimate of the same version arrives after it. It is the one path from
// feedback (ApplyFeedback, ImportFeedback) into the cache and the
// optimizer's injections, so both report the same value.
func (e *Engine) learn(entry core.FeedbackEntry) {
	entry.TableVersion = e.tableVersion(entry.Table)
	kept := e.cache.Store(entry)
	e.opt.InjectDPC(entry.Table, entry.Pred, float64(kept.DPC))
}
