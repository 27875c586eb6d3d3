package pagefeedback

import (
	"errors"
	"io"

	"pagefeedback/internal/metrics"
)

// engineMetrics is the engine-wide instrumentation: counters for query and
// error volume, histograms for latency and resource distributions. All
// fields are registered against one Registry so MetricsSnapshot exports
// them in a stable order. Everything here is write-hot-path safe: counters
// and histograms are a handful of atomic adds each.
type engineMetrics struct {
	reg *metrics.Registry

	queries     *metrics.Counter
	errors      map[ErrorKind]*metrics.Counter
	rows        *metrics.Counter
	rowsLoaded  *metrics.Counter
	slowQueries *metrics.Counter

	// Occupancy gauges are refreshed from the admission gate at snapshot
	// time (see Engine.MetricsSnapshot) rather than on every admission
	// event, keeping the admit/release paths free of extra stores.
	queriesActive   *metrics.Gauge
	admissionQueued *metrics.Gauge
	admissionPeak   *metrics.Gauge

	planCacheHits   *metrics.Counter
	planCacheMisses *metrics.Counter

	quarantinedMonitors *metrics.Counter

	physicalReads *metrics.Counter
	logicalReads  *metrics.Counter
	readRetries   *metrics.Counter
	spansDropped  *metrics.Counter

	wallMicros      *metrics.Histogram
	simulatedMicros *metrics.Histogram
	queueWaitMicros *metrics.Histogram
	memPeakBytes    *metrics.Histogram
	poolFrameWait   *metrics.Histogram
}

// errorKinds enumerates every ErrorKind for counter pre-registration, so
// the exported metric set is identical on every engine regardless of which
// failures have occurred.
var errorKinds = []ErrorKind{
	ErrKindCancelled, ErrKindTimeout, ErrKindPanic, ErrKindStorage,
	ErrKindOverload, ErrKindMemory, ErrKindExec,
}

func newEngineMetrics() *engineMetrics {
	reg := metrics.NewRegistry()
	m := &engineMetrics{
		reg:         reg,
		queries:     reg.NewCounter("pf_queries_total", "Queries executed (successes and failures)."),
		errors:      make(map[ErrorKind]*metrics.Counter, len(errorKinds)),
		rows:        reg.NewCounter("pf_rows_returned_total", "Rows returned by successful queries."),
		rowsLoaded:  reg.NewCounter("pf_rows_loaded_total", "Rows bulk-loaded into tables."),
		slowQueries: reg.NewCounter("pf_slow_queries_total", "Queries captured by the slow-query log."),

		queriesActive:   reg.NewGauge("pf_queries_active", "Queries currently admitted and executing."),
		admissionQueued: reg.NewGauge("pf_admission_queued", "Queries currently waiting for admission."),
		admissionPeak:   reg.NewGauge("pf_admission_peak_queued", "Deepest the admission queue has been."),

		planCacheHits:   reg.NewCounter("pf_plan_cache_hits_total", "Plans instantiated from the plan cache."),
		planCacheMisses: reg.NewCounter("pf_plan_cache_misses_total", "Plans optimized anew."),

		quarantinedMonitors: reg.NewCounter("pf_quarantined_monitors_total", "DPC monitors quarantined by faults."),

		physicalReads: reg.NewCounter("pf_physical_reads_total", "Pages read from simulated disk."),
		logicalReads:  reg.NewCounter("pf_logical_reads_total", "Page requests served by the buffer pool."),
		readRetries:   reg.NewCounter("pf_read_retries_total", "Transient storage faults absorbed by retry."),
		spansDropped:  reg.NewCounter("pf_trace_spans_dropped_total", "Trace spans dropped by full buffers."),

		wallMicros:      reg.NewHistogram("pf_query_wall_microseconds", "Wall-clock query latency."),
		simulatedMicros: reg.NewHistogram("pf_query_simulated_microseconds", "Simulated (I/O + CPU) query time."),
		queueWaitMicros: reg.NewHistogram("pf_admission_wait_microseconds", "Admission queue wait per admitted query."),
		memPeakBytes:    reg.NewHistogram("pf_query_mem_peak_bytes", "Per-query peak of tracked operator memory."),
		poolFrameWait:   reg.NewHistogram("pf_pool_frame_wait_microseconds", "Buffer-pool frame waits on exhausted shards."),
	}
	for _, k := range errorKinds {
		m.errors[k] = reg.NewCounter("pf_query_errors_"+string(k)+"_total",
			"Queries failed with kind "+string(k)+".")
	}
	return m
}

// noteQuery records the outcome of one ExecuteContext call. It runs after
// the panic boundary, so err is already classified (or nil with res set).
func (m *engineMetrics) noteQuery(res *Result, err error) {
	m.queries.Inc()
	if err != nil {
		kind := ErrKindExec
		var qe *QueryError
		if errors.As(err, &qe) {
			kind = qe.Kind
		}
		if c, ok := m.errors[kind]; ok {
			c.Inc()
		} else {
			m.errors[ErrKindExec].Inc()
		}
		return
	}
	if res == nil {
		return
	}
	rt := &res.Stats.Runtime
	m.rows.Add(int64(len(res.Rows)))
	m.wallMicros.Observe(res.WallTime.Microseconds())
	m.simulatedMicros.Observe(res.SimulatedTime.Microseconds())
	if rt.QueueWait > 0 {
		m.queueWaitMicros.Observe(rt.QueueWait.Microseconds())
	}
	if rt.MemPeakBytes > 0 {
		m.memPeakBytes.Observe(rt.MemPeakBytes)
	}
	m.quarantinedMonitors.Add(int64(rt.QuarantinedMonitors))
	m.physicalReads.Add(rt.PhysicalReads)
	m.logicalReads.Add(rt.LogicalReads)
	m.readRetries.Add(rt.ReadRetries)
	if res.Trace != nil {
		m.spansDropped.Add(res.Trace.Dropped)
	}
}

// MetricsSnapshot returns a stable-ordered snapshot of every engine metric:
// query and error counters, latency and resource histograms, plan-cache and
// monitor-quarantine counts, and the admission occupancy gauges (refreshed
// here, at read time). Safe to call concurrently with queries.
func (e *Engine) MetricsSnapshot() metrics.Snapshot {
	active, queued, peak := e.gate.occupancy()
	e.met.queriesActive.Set(int64(active))
	e.met.admissionQueued.Set(int64(queued))
	e.met.admissionPeak.Set(int64(peak))
	return e.met.reg.Snapshot()
}

// WriteMetricsPrometheus writes the current metrics in the Prometheus text
// exposition format.
func (e *Engine) WriteMetricsPrometheus(w io.Writer) error {
	s := e.MetricsSnapshot()
	return s.WritePrometheus(w)
}
