package exec

import (
	"fmt"
	"math"
	"time"

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

	// ShedLevel degrades monitors at plant time along the paper's mechanism
	// lattice (exact grouped counting → DPSample → linear counting →
	// disabled), trading observation quality for overhead under load:
	//   0  full fidelity (default);
	//   1  exact prefix counters become DPSample, sampled monitors thin
	//      their fraction;
	//   2  prefix monitors fall to linear counting, sampling thins further,
	//      join filters are not planted;
	//   3  no monitors are planted at all.
	// Every monitor degraded relative to level 0 reports Degraded (with
	// Shed set), so its observation never reaches the feedback cache —
	// mirroring the quarantine contract.
	ShedLevel int
	// OverheadBudget, when > 0, caps each monitor's cumulative observation
	// wall time; a monitor that exceeds it sheds itself mid-query — the
	// §III-B short-circuit disable generalized from per-page sampling cost
	// to measured overhead.
	OverheadBudget time.Duration
}

// failInjected reports whether fault injection is armed for mechanism mech.
func (mc *MonitorConfig) failInjected(mech string) bool {
	for _, m := range mc.FailMonitors {
		if m == mech {
			return true
		}
	}
	return false
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
	// OpStats.OpID in the executed plan), or -1 for requests that were
	// never planted: unsatisfiable ones and shed placeholders. EXPLAIN
	// ANALYZE uses it to print each DPC observation at its operator.
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
	// Degraded is true when the monitor produced no trustworthy observation
	// — it failed mid-query and was quarantined, or it was load-shed to a
	// cheaper mechanism under overload. The query finished normally, but
	// ApplyFeedback ignores this result.
	Degraded bool
	// Shed distinguishes load-shedding (deliberate degradation under
	// pressure; the estimate may still be present) from quarantine (the
	// monitor crashed; no observation at all).
	Shed bool `xml:"shed,attr,omitempty"`
	// Reason explains an unsatisfiable request, a quarantined monitor, or a
	// shed monitor.
	Reason string
}

// scanMonitorKind selects how a scan-side monitor counts.
type scanMonitorKind uint8

const (
	monExactPrefix scanMonitorKind = iota // predicate is a prefix of the scan predicate
	monSampled                            // DPSample; full evaluation on sampled pages
	monJoinFilter                         // bit-vector semi-join predicate
	monLinear                             // linear counting over prefix page hits (shed rung)
)

// scanMonitor is one DPC monitor attached to an SE-side scan.
type scanMonitor struct {
	req  DPCRequest
	kind scanMonitorKind
	// host is the stats node of the operator the monitor is attached to.
	// The builder assigns operator ids after attachment, so the id is read
	// through this pointer at result() time, not copied at attach time.
	// Shards leave it nil; only the template reports.
	host *OpStats

	// monExactPrefix: the scan predicate's first prefixLen atoms form the
	// monitored predicate.
	prefixLen int
	gc        *core.GroupedCounter
	rows      int64 // qualifying rows (cardinality feedback)

	// monSampled: independent evaluation of pred on sampled pages — on the
	// encoded cells through raw when pred has an encoded form (compiled at
	// attach time), on decoded rows otherwise.
	pred expr.Conjunction // bound
	raw  expr.RawCompiled
	dps  *core.DPSample

	// monJoinFilter: bitvector membership of the join column, read from the
	// encoded cell in place.
	filter     *core.BitVectorFilter
	joinColOrd int

	// schema is the scanned table's, set at attach time.
	schema *tuple.Schema

	// Page state of the sampled kinds: in is set when the current page is in
	// the monitor's sample (decided before its cells are judged), hit once
	// one of its rows satisfies the monitored predicate.
	in, hit bool
	// A sampled monitor copies the cells of a page in its sample here (cell i
	// ends at pendingEnds[i]) and judges them when it closes the page, inside
	// safeEndPage: one quarantine guard per page rather than one per cell,
	// and, with an overhead budget armed, one pair of clock reads timing the
	// whole page's observation — a pair per cell would cost more than the
	// judging.
	pending     []byte
	pendingEnds []int

	// monLinear: probabilistic counting of prefix-satisfying pages — the
	// third rung of the shed lattice; prefix hits still come free from the
	// scan's short-circuit evaluation, only the counter is cheaper.
	lc     *core.LinearCounter
	lcBits uint64

	// quarantine state: a monitor that panics is disabled for the rest of
	// the query and reports a degraded result; the host query is unaffected.
	disabled bool
	failure  string
	// injectFail makes the first observation panic (test hook).
	injectFail bool

	// shed state: a load-shed monitor estimates at a cheaper lattice rung
	// (or not at all) and reports Degraded with this reason, keeping its
	// observation out of the feedback cache.
	shed       bool
	shedReason string
	// overheadBudget arms mid-query self-shedding: once obsTime (cumulative
	// wall time spent observing) crosses it, the monitor disables itself.
	overheadBudget time.Duration
	obsTime        time.Duration
}

// shard returns a fresh monitor that observes one page-disjoint partition of
// the template's scan. Counters are forked (same seed and fraction, no
// observations); the bit-vector filter is shared by pointer — it is complete
// and read-only by the time a parallel probe opens, so concurrent MayContain
// calls are safe. Shards are folded back into the template with absorb at the
// partition barrier.
func (m *scanMonitor) shard() *scanMonitor {
	s := &scanMonitor{
		req: m.req, kind: m.kind, prefixLen: m.prefixLen, pred: m.pred, raw: m.raw,
		filter: m.filter, joinColOrd: m.joinColOrd, schema: m.schema,
		disabled: m.disabled, failure: m.failure, injectFail: m.injectFail,
		shed: m.shed, shedReason: m.shedReason, overheadBudget: m.overheadBudget,
		lcBits: m.lcBits,
	}
	switch m.kind {
	case monExactPrefix:
		s.gc = core.NewGroupedCounter()
	case monLinear:
		s.lc = core.NewLinearCounter(m.lcBits)
	default:
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
		m.disabled = true
		m.failure = s.failure
		m.shed = s.shed
		m.shedReason = s.shedReason
	}
	if m.disabled {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			m.quarantine(r)
		}
	}()
	m.rows += s.rows
	m.obsTime += s.obsTime
	switch m.kind {
	case monExactPrefix:
		m.gc.Merge(s.gc)
	case monLinear:
		m.lc.Merge(s.lc)
	default:
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
	case monLinear:
		return MechLinearCount
	default:
		return MechBitVector
	}
}

// quarantine disables the monitor for the rest of the query, recording why.
func (m *scanMonitor) quarantine(v any) {
	m.disabled = true
	m.failure = fmt.Sprint(v)
}

// shedOff disables the monitor as a deliberate load-shedding decision; the
// result is Degraded with Shed set, distinguishing it from a quarantine.
func (m *scanMonitor) shedOff(reason string) {
	m.disabled = true
	m.shed = true
	m.shedReason = reason
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
// (seed, pid), so nothing is observed yet — and reports whether it needs the
// page's rows decoded, which only a predicate with no encoded form does. A
// monitor is only ever disabled from inside an observation, so the answer
// still holds when the page is observed.
func (m *scanMonitor) enterPage(pid storage.PageID) (decode bool) {
	m.in = !m.disabled && (m.kind == monSampled || m.kind == monJoinFilter) && m.dps.InSample(pid)
	m.hit = false
	return m.in && m.kind == monSampled && !m.raw.OK()
}

// judgesCells reports whether the monitor judges the current page's encoded
// cells one by one.
func (m *scanMonitor) judgesCells() bool {
	return m.in && (m.kind == monJoinFilter || m.raw.OK())
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

// safeObserveRows is the decoded form of judgeCell, behind the quarantine
// guard, for every row of a sampled page: the scan calls it when enterPage
// asked for decoding, and the full-decode reference tests use it for all
// sampled monitors.
func (m *scanMonitor) safeObserveRows(rows []tuple.Row) {
	if m.disabled {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			m.quarantine(r)
		}
	}()
	for _, row := range rows {
		if m.kind == monSampled {
			m.note(m.pred.Eval(row))
		} else {
			m.note(m.filter.MayContain(row[m.joinColOrd]))
		}
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
	defer func() {
		if r := recover(); r != nil {
			m.quarantine(r)
		}
	}()
	if m.injectFail {
		panic("exec: injected monitor fault (" + m.mechanism() + ")")
	}
	if m.overheadBudget <= 0 {
		m.endPage(pid, passed, hist)
		return
	}
	start := time.Now()
	m.endPage(pid, passed, hist)
	m.obsTime += time.Since(start)
	if m.obsTime > m.overheadBudget {
		m.shedOff(fmt.Sprintf("load-shed: observation overhead %v exceeded budget %v",
			m.obsTime, m.overheadBudget))
	}
}

// safeLateMatch is lateMatch behind the quarantine guard.
func (m *scanMonitor) safeLateMatch(pid storage.PageID) {
	if m.disabled {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			m.quarantine(r)
		}
	}()
	m.lateMatch(pid)
}

// safeFinish closes the monitor's last page at end of scan, behind the
// quarantine guard.
func (m *scanMonitor) safeFinish() {
	if m.disabled {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			m.quarantine(r)
		}
	}()
	switch m.kind {
	case monExactPrefix:
		m.gc.Finish()
	case monLinear:
		// Linear counting has no per-page carry state to close out.
	default:
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
// sample (or have noted its decoded rows already). Page-granular mechanisms (grouped
// counting, DPSample) make exactly one counter transition per page, so
// batching removes per-row monitor overhead rather than hiding it.
func (m *scanMonitor) endPage(pid storage.PageID, passed int, hist []int) {
	switch m.kind {
	case monExactPrefix, monLinear:
		// Rows passing the first prefixLen atoms: those that pass them all,
		// plus those that first fail at a later atom.
		n := passed
		if m.prefixLen < len(hist) {
			for _, c := range hist[m.prefixLen:] {
				n += c
			}
		}
		m.rows += int64(n)
		if m.kind == monExactPrefix {
			m.gc.Observe(pid, n > 0)
		} else if n > 0 {
			m.lc.AddPID(pid)
		}
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
	defer func() {
		if r := recover(); r != nil {
			fs.m.quarantine(r)
		}
	}()
	if fs.m.injectFail {
		panic("exec: injected monitor fault (" + fs.m.mechanism() + ")")
	}
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

// result finalizes the monitor into a DPCResult. A quarantined monitor
// reports a degraded result: no page count, a reason, and Degraded set so
// feedback consumers skip it.
func (m *scanMonitor) result() DPCResult {
	if m.disabled {
		r := DPCResult{
			Request: m.req, Mechanism: m.mechanism(), OpID: m.hostID(),
			Degraded: true, Shed: m.shed,
			Reason: "monitor quarantined: " + m.failure,
		}
		if m.shed {
			r.Reason = m.shedReason
		}
		return r
	}
	var r DPCResult
	switch m.kind {
	case monExactPrefix:
		r = DPCResult{
			Request: m.req, Mechanism: MechExactScan,
			DPC: m.gc.Count(), Exact: true, Cardinality: m.rows,
		}
	case monLinear:
		r = DPCResult{
			Request: m.req, Mechanism: MechLinearCount,
			DPC: m.lc.EstimateInt(), Exact: false, Cardinality: m.rows,
		}
	case monSampled:
		exact := m.dps.Fraction() >= 1
		card := m.rows
		if !exact {
			card = int64(math.Round(float64(m.rows) / m.dps.Fraction()))
		}
		r = DPCResult{
			Request: m.req, Mechanism: MechDPSample,
			DPC: m.dps.EstimateInt(), Exact: exact, Cardinality: card,
		}
	default:
		card := int64(math.Round(float64(m.rows) / m.dps.Fraction()))
		r = DPCResult{
			Request: m.req, Mechanism: MechBitVector,
			DPC: m.dps.EstimateInt(), Exact: false, Cardinality: card,
		}
	}
	if m.shed {
		// Planted at a cheaper rung than requested: the estimate is present
		// but untrusted; it must not feed the cache.
		r.Degraded = true
		r.Shed = true
		r.Reason = m.shedReason
	}
	r.OpID = m.hostID()
	return r
}

// hostID returns the attached operator's id, or -1 when the monitor has
// no host (never attached, or a worker shard).
func (m *scanMonitor) hostID() int32 {
	if m.host == nil {
		return -1
	}
	return m.host.OpID
}
