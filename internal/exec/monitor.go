package exec

import (
	"fmt"
	"math"
	"slices"

	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// MonitorConfig controls the DPC monitoring machinery for one execution.
type MonitorConfig struct {
	// Requests lists the distinct page counts to obtain.
	Requests []DPCRequest
	// SampleFraction is the DPSample page-sampling fraction f (Fig 4);
	// 0 defaults to 0.01 (the paper's 1% operating point).
	SampleFraction float64
	// LinearBits sizes LinearCounter bitmaps; 0 derives it from the
	// monitored table's page count (about one bit per page).
	LinearBits uint64
	// BitVectorBits sizes join bit-vector filters; 0 derives it from the
	// inner table's row count.
	BitVectorBits uint64
	// Seed makes sampling reproducible.
	Seed int64
	// CompareSamplingEstimator additionally runs the reservoir-sampling
	// GEE estimator next to each linear counter (§III-A comparison).
	CompareSamplingEstimator bool
	// ReservoirSize for the comparison estimator; 0 defaults to 1024.
	ReservoirSize int
	// FailMonitors is a fault-injection hook for tests: monitors whose
	// mechanism appears here panic on their first observation, exercising
	// the quarantine path. Production callers leave it empty.
	FailMonitors []string
}

// guard arms a monitor's guard at plant time: host is the operator the
// monitor is attached to, mech its mechanism (the fault hook fires when
// FailMonitors names it).
func (mc *MonitorConfig) guard(host *OpStats, mech string) monitorGuard {
	g := monitorGuard{host: host}
	if slices.Contains(mc.FailMonitors, mech) {
		g.injectFail = "exec: injected monitor fault (" + mech + ")"
	}
	return g
}

// monitorGuard holds the contract every DPC monitor keeps with the operator
// hosting it: monitoring never fails the host query. Each observation runs
// with the guard's catch deferred. A monitor that panics is quarantined: it is
// disabled for the rest of the query and reports a degraded result naming the
// panic, which never reaches the feedback cache.
type monitorGuard struct {
	// host is the stats node of the operator the monitor is attached to.
	// The builder assigns operator ids after attachment, so the id is read
	// through this pointer at report time, not copied at attach time.
	host *OpStats

	disabled bool
	failure  string // the recovered panic of a quarantined monitor
	// injectFail, when not "", is the panic the first observation raises
	// (the FailMonitors test hook).
	injectFail string
}

// catch quarantines the monitor when the observation it guards panics, and
// returns control to the host. Defer it directly: defer m.catch().
func (g *monitorGuard) catch() {
	if r := recover(); r != nil {
		g.disabled = true
		g.failure = fmt.Sprint(r)
	}
}

// fault raises the injected fault, when armed.
func (g *monitorGuard) fault() {
	if g.injectFail != "" {
		panic(g.injectFail)
	}
}

// report completes r, which carries the monitor's observation unless it was
// disabled, with the host's operator id and the guard's verdict.
func (g *monitorGuard) report(r DPCResult) DPCResult {
	r.OpID = -1
	if g.host != nil {
		r.OpID = g.host.OpID
	}
	if g.disabled {
		r.Degraded, r.Reason = true, "monitor quarantined: "+g.failure
	}
	return r
}

func (mc *MonitorConfig) sampleFraction() float64 {
	if mc.SampleFraction <= 0 || mc.SampleFraction > 1 {
		return 0.01
	}
	return mc.SampleFraction
}

// DPCRequest asks for one distinct page count.
type DPCRequest struct {
	// Table is the table whose pages are being counted.
	Table string
	// Pred is the predicate expression p of DPC(T, p). Ignored when Join
	// is true.
	Pred expr.Conjunction
	// Join requests DPC(Table, join-predicate) — the quantity needed to
	// cost an INL join with Table as the inner relation (§IV).
	Join bool
}

// String renders the request.
func (r DPCRequest) String() string {
	if r.Join {
		return fmt.Sprintf("DPC(%s, <join predicate>)", r.Table)
	}
	return fmt.Sprintf("DPC(%s, %s)", r.Table, r.Pred)
}

// Mechanism names reported in DPCResult, matching the paper's sections.
const (
	MechExactScan     = "exact-scan"          // grouped counting, prefix predicate (§III-B)
	MechDPSample      = "dpsample"            // page sampling, short-circuiting off on sample (§III-B)
	MechLinearCount   = "linear-counting"     // probabilistic counting on Fetch (§III-A)
	MechBitVector     = "bitvector+dpsample"  // derived semi-join predicate (§IV)
	MechINLFetch      = "linear-counting-inl" // probabilistic counting on INL inner fetch (§IV)
	MechUnsatisfiable = "unsatisfiable"       // current plan cannot observe this DPC (§II-B)
)

// DPCResult is one obtained distinct page count.
type DPCResult struct {
	Request   DPCRequest
	Mechanism string
	// OpID is the id of the operator the monitor was attached to (matching
	// OpStats.OpID in the executed plan), or -1 for unsatisfiable requests,
	// which were never planted. EXPLAIN ANALYZE uses it to print each DPC
	// observation at its operator.
	OpID int32
	// DPC is the observed/estimated distinct page count (0 when
	// unsatisfiable).
	DPC int64
	// Exact is true when the mechanism guarantees the exact value.
	Exact bool
	// Cardinality is the number of qualifying rows observed alongside,
	// when the mechanism sees them (exact-scan and dpsample do).
	Cardinality int64
	// SamplingEstimate is the GEE comparison estimate, when enabled.
	SamplingEstimate int64
	// Degraded is true when the monitor produced no trustworthy observation:
	// it failed mid-query and was quarantined. The query finished normally,
	// but ApplyFeedback ignores this result.
	Degraded bool
	// Reason explains an unsatisfiable request or a quarantined monitor.
	Reason string
}

// scanMonitorKind selects how a scan-side monitor counts.
type scanMonitorKind uint8

const (
	monExactPrefix scanMonitorKind = iota // predicate is a prefix of the scan predicate
	monSampled                            // DPSample; full evaluation on sampled pages
	monJoinFilter                         // bit-vector semi-join predicate
)

// scanMonitor is one DPC monitor attached to an SE-side scan.
type scanMonitor struct {
	monitorGuard
	req  DPCRequest
	kind scanMonitorKind

	// monExactPrefix: the scan predicate's first prefixLen atoms form the
	// monitored predicate.
	prefixLen int
	gc        *core.GroupedCounter
	rows      int64 // qualifying rows (cardinality feedback)

	// monSampled: independent evaluation of pred on the encoded cells of
	// sampled pages, through raw (compiled at attach time).
	pred expr.Conjunction // bound
	raw  expr.RawCompiled
	dps  *core.DPSample

	// monJoinFilter: bitvector membership of the join column, read from the
	// encoded cell in place.
	filter     *core.BitVectorFilter
	joinColOrd int

	// schema is the scanned table's, set at attach time.
	schema *tuple.Schema

	// hit is set once a row of the current page satisfies the monitored
	// predicate (sampled kinds, on a page in the sample).
	hit bool
	// A sampled monitor copies the cells of a page in its sample here (cell i
	// ends at pendingEnds[i]) and judges them when it closes the page, inside
	// safeEndPage: one quarantine guard per page rather than one per cell.
	pending     []byte
	pendingEnds []int
}

// shard returns a fresh monitor that observes one page-disjoint partition of
// the template's scan. Counters are forked (same seed and fraction, no
// observations); the bit-vector filter is shared by pointer — it is complete
// and read-only by the time a parallel probe opens, so concurrent MayContain
// calls are safe. Shards are folded back into the template with absorb at the
// partition barrier. A shard inherits the template's guard; only the
// template reports.
func (m *scanMonitor) shard() *scanMonitor {
	s := &scanMonitor{
		monitorGuard: m.monitorGuard, req: m.req, kind: m.kind, prefixLen: m.prefixLen,
		pred: m.pred, raw: m.raw, filter: m.filter, joinColOrd: m.joinColOrd, schema: m.schema,
	}
	if m.kind == monExactPrefix {
		s.gc = core.NewGroupedCounter()
	} else {
		s.dps = m.dps.Fork()
	}
	return s
}

// absorb folds a partition shard's observations into the template monitor,
// behind the quarantine guard. A quarantined shard quarantines the template:
// a monitor that failed on any partition produced no trustworthy observation,
// exactly as in serial execution. Because every core counter merge is
// commutative and the partitions are page-disjoint, the absorbed totals are
// identical to a serial scan's.
func (m *scanMonitor) absorb(s *scanMonitor) {
	if s.disabled && !m.disabled {
		// The shard's guard is a copy of the template's that differs only
		// in the failure it caught.
		m.monitorGuard = s.monitorGuard
	}
	if m.disabled {
		return
	}
	defer m.catch()
	m.rows += s.rows
	if m.kind == monExactPrefix {
		m.gc.Merge(s.gc)
	} else {
		m.dps.Merge(s.dps)
	}
}

// mechanism names the monitor's reporting mechanism.
func (m *scanMonitor) mechanism() string {
	switch m.kind {
	case monExactPrefix:
		return MechExactScan
	case monSampled:
		return MechDPSample
	default:
		return MechBitVector
	}
}

// setSchema tells the monitor the scanned table's schema (attach time,
// single-threaded) and compiles a sampled monitor's predicate to its encoded
// form, so the scan judges it on page bytes.
func (m *scanMonitor) setSchema(s *tuple.Schema) {
	m.schema = s
	if m.kind == monSampled {
		m.raw = expr.CompileRaw(m.pred, s)
	}
}

// columns is the mask of the scanned table's columns the monitor reads.
func (m *scanMonitor) columns() uint64 {
	switch m.kind {
	case monSampled:
		return predMask(m.pred)
	case monJoinFilter:
		return ordMask(m.joinColOrd)
	}
	return 0 // prefix monitors read the scan predicate's first-fail histogram
}

// enterPage is called before page pid's cells are judged. A live sampled
// monitor learns whether the page is in its sample — a pure function of
// (seed, pid), so nothing is observed yet — and reports whether it judges
// the page's cells. A monitor is only ever disabled from inside an
// observation, so the answer still holds when the page is observed.
func (m *scanMonitor) enterPage(pid storage.PageID) bool {
	m.hit = false
	return !m.disabled && (m.kind == monSampled || m.kind == monJoinFilter) && m.dps.InSample(pid)
}

// addCell copies one encoded cell of a page in the monitor's sample, to be
// judged when the monitor closes the page (see pending).
func (m *scanMonitor) addCell(cell []byte) {
	m.pending = append(m.pending, cell...)
	m.pendingEnds = append(m.pendingEnds, len(m.pending))
}

// judgeCell evaluates the monitored predicate — with short-circuiting off,
// independently of the scan predicate — on one encoded row of a sampled page.
// A malformed cell is never read out of bounds; the decoder rejects it and
// fails the scan, so how the monitor counted it does not matter.
func (m *scanMonitor) judgeCell(cell []byte) {
	if m.kind == monSampled {
		m.note(m.raw.Eval(cell))
		return
	}
	n, str, ok := cellKey(m.schema, cell, m.joinColOrd)
	switch {
	case !ok:
		m.note(false)
	case m.schema.Column(m.joinColOrd).Kind == tuple.KindString:
		m.note(m.filter.MayContainBytes(str))
	default:
		m.note(m.filter.MayContainInt(n))
	}
}

// note records one judged row of a sampled page.
func (m *scanMonitor) note(satisfies bool) {
	if satisfies {
		m.rows++
		m.hit = true
	}
}

// safeEndPage is endPage behind the quarantine guard: a panic inside the
// monitor machinery (including the core counters) disables this monitor and
// returns control to the scan, which continues as if the monitor were never
// attached — monitoring failures must never fail the host query.
func (m *scanMonitor) safeEndPage(pid storage.PageID, passed int, hist []int) {
	if m.disabled {
		return
	}
	defer m.catch()
	m.fault()
	m.endPage(pid, passed, hist)
}

// safeLateMatch is lateMatch behind the quarantine guard.
func (m *scanMonitor) safeLateMatch(pid storage.PageID) {
	if m.disabled {
		return
	}
	defer m.catch()
	m.lateMatch(pid)
}

// safeFinish closes the monitor's last page at end of scan, behind the
// quarantine guard.
func (m *scanMonitor) safeFinish() {
	if m.disabled {
		return
	}
	defer m.catch()
	if m.kind == monExactPrefix {
		m.gc.Finish()
	} else {
		m.dps.Finish()
	}
}

// endPage closes one page in a single call — the page-batched form of the
// paper's per-row SE instrumentation. passed counts the page's rows that pass
// the scan predicate, and hist[j] those whose first failing atom under
// short-circuiting is atom j (nil when every prefix monitor is as long as the
// predicate). Prefix monitors derive their result from them and the page id
// for free — O(atoms) per page, however many rows and monitors — with no row
// decoded. Sampled monitors judge the cells they copied from a page in their
// sample. Page-granular mechanisms (grouped counting, DPSample) make exactly
// one counter transition per page, so batching removes per-row monitor
// overhead rather than hiding it.
func (m *scanMonitor) endPage(pid storage.PageID, passed int, hist []int) {
	switch m.kind {
	case monExactPrefix:
		// Rows passing the first prefixLen atoms: those that pass them all,
		// plus those that first fail at a later atom.
		n := passed
		if m.prefixLen < len(hist) {
			for _, c := range hist[m.prefixLen:] {
				n += c
			}
		}
		m.rows += int64(n)
		m.gc.Observe(pid, n > 0)
	default:
		// One sampling decision per page; rows were evaluated (with
		// short-circuiting off) only when the page is in the sample.
		lo := 0
		for _, hi := range m.pendingEnds {
			m.judgeCell(m.pending[lo:hi])
			lo = hi
		}
		m.pending, m.pendingEnds = m.pending[:0], m.pendingEnds[:0]
		if m.dps.StartRow(pid) {
			m.dps.Observe(m.hit)
		}
		m.hit = false
	}
}

// filterSink is the RE-side face of a join-filter monitor: joins and sorts
// add outer join values through it while building the bit-vector filter
// (Fig 5). The sink shares quarantine state with the scan-side monitor, so a
// panic on either side of the RE/SE boundary disables the whole monitor.
type filterSink struct {
	m *scanMonitor
	f *core.BitVectorFilter
}

// Add inserts an outer join value into the filter, behind the guard.
func (fs *filterSink) Add(v tuple.Value) {
	if fs.m.disabled {
		return
	}
	defer fs.m.catch()
	fs.m.fault()
	fs.f.Add(v)
}

// lateMatch marks page pid as satisfying after the fact — the RE-side
// merge join calls this through the boundary callback when an inner row
// matches an outer value that entered the partial bit vector after the row
// was scanned (§IV, partial bit-vector filters). Only the scan's current
// page can be amended; the merge join's lookahead discipline guarantees
// that is always the page in question.
func (m *scanMonitor) lateMatch(pid storage.PageID) {
	if m.kind != monJoinFilter {
		return
	}
	m.dps.ObserveAtPage(pid)
}

// result finalizes the monitor into a DPCResult; a disabled monitor reports
// no observation.
func (m *scanMonitor) result() DPCResult {
	r := DPCResult{Request: m.req, Mechanism: m.mechanism()}
	if m.disabled {
		return m.report(r)
	}
	switch m.kind {
	case monExactPrefix:
		r.DPC, r.Exact, r.Cardinality = m.gc.Count(), true, m.rows
	case monSampled:
		r.DPC, r.Exact, r.Cardinality = m.dps.EstimateInt(), m.dps.Fraction() >= 1, m.rows
		if !r.Exact {
			r.Cardinality = int64(math.Round(float64(m.rows) / m.dps.Fraction()))
		}
	default:
		r.DPC = m.dps.EstimateInt()
		r.Cardinality = int64(math.Round(float64(m.rows) / m.dps.Fraction()))
	}
	return m.report(r)
}
