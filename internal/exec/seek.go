package exec

import (
	"fmt"
	"sort"
	"time"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// seekMonitor counts distinct fetched pages with probabilistic counting
// (§III-A): in an index plan rows arrive in key order, so the same page can
// recur arbitrarily and exact counting would need duplicate elimination.
type seekMonitor struct {
	req  DPCRequest
	lc   *core.LinearCounter
	sd   *core.SampleDistinct // optional comparison estimator
	rows int64
	mech string
	// host is the attached operator's stats node; see scanMonitor.host.
	host *OpStats

	// quarantine state; see scanMonitor.
	disabled   bool
	failure    string
	injectFail bool

	// shed state; see scanMonitor. Seek monitors already sit at the linear
	// counting rung, so plant-time shedding only thins their bitmap; the
	// overhead budget can still disable them mid-query.
	shed           bool
	shedReason     string
	overheadBudget time.Duration
	obsTime        time.Duration
}

// observe counts the pages of the rows fetched since the last call, behind
// the quarantine guard: a panic inside the monitor machinery disables this
// monitor and returns control to the fetch path, which continues as if it
// were never attached. The host calls it once per NextBatch, so the guard
// and, with an overhead budget, the two clock reads are paid per batch, not
// per fetched row.
func (m *seekMonitor) observe(pids []storage.PageID) {
	if m.disabled || len(pids) == 0 {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			m.disabled = true
			m.failure = fmt.Sprint(r)
		}
	}()
	if m.injectFail {
		panic("exec: injected monitor fault (" + m.mech + ")")
	}
	var start time.Time
	if m.overheadBudget > 0 {
		start = time.Now()
	}
	m.rows += int64(len(pids))
	for _, pid := range pids {
		m.lc.AddPID(pid)
		if m.sd != nil {
			m.sd.AddPID(pid)
		}
	}
	if m.overheadBudget > 0 {
		m.obsTime += time.Since(start)
		if m.obsTime > m.overheadBudget {
			m.disabled = true
			m.shed = true
			m.shedReason = fmt.Sprintf("load-shed: observation overhead %v exceeded budget %v",
				m.obsTime, m.overheadBudget)
		}
	}
}

// observePages hands every monitor the pages buffered since the last call
// and returns the emptied buffer.
func observePages(monitors []*seekMonitor, pids []storage.PageID) []storage.PageID {
	for _, m := range monitors {
		m.observe(pids)
	}
	return pids[:0]
}

func (m *seekMonitor) hostID() int32 {
	if m.host == nil {
		return -1
	}
	return m.host.OpID
}

func (m *seekMonitor) result() DPCResult {
	if m.disabled {
		r := DPCResult{
			Request: m.req, Mechanism: m.mech, OpID: m.hostID(),
			Degraded: true, Shed: m.shed,
			Reason: "monitor quarantined: " + m.failure,
		}
		if m.shed {
			r.Reason = m.shedReason
		}
		return r
	}
	r := DPCResult{
		Request: m.req, Mechanism: m.mech, OpID: m.hostID(),
		DPC: m.lc.EstimateInt(), Cardinality: m.rows,
	}
	if m.sd != nil {
		r.SamplingEstimate = m.sd.EstimateInt()
	}
	if m.shed {
		r.Degraded = true
		r.Shed = true
		r.Reason = m.shedReason
	}
	return r
}

// fetchPred is a fetch path's predicate and the columns it decodes. A
// predicate with an encoded form is judged on the fetched cell, under the
// page pin and before any decode, so a rejected fetch decodes nothing; one
// without is judged on the decoded row by the generic evaluator, which
// reports the planner bug by panicking. A kept row decodes only the columns
// the plan above demands plus the predicate's; the rest are zero-valued.
type fetchPred struct {
	pred expr.Conjunction // bound
	raw  expr.RawCompiled // pred over encoded cells; !OK selects the decoded fallback
	want uint64
}

func newFetchPred(ctx *Context, pred expr.Conjunction, s *tuple.Schema) fetchPred {
	return fetchPred{pred: pred, raw: compileScanPred(ctx, pred, s), want: tuple.AllColumns}
}

// setDemand sets the columns the plan above reads of the fetched rows.
func (p *fetchPred) setDemand(need uint64) { p.want = need | predMask(p.pred) }

// Keep implements catalog.CellFilter. Like the scans' judge, it accepts a
// malformed cell unexamined, so the decoder rejects it and fails the query.
func (p *fetchPred) Keep(cell []byte) bool { return p.raw.Eval(cell) }

// fetch appends the row at rid to vals when it satisfies the predicate, and
// reports whether it did. A rejected row leaves vals' length as it was.
func (p *fetchPred) fetch(tab *catalog.Table, vals []tuple.Value, rid storage.RID) ([]tuple.Value, bool, error) {
	if p.raw.OK() {
		var keep catalog.CellFilter
		if p.raw.Len() > 0 {
			keep = p
		}
		return tab.FetchRowAppend(vals, rid, p.want, keep)
	}
	lo := len(vals)
	vals, _, err := tab.FetchRowAppend(vals, rid, p.want, nil)
	if err != nil {
		return nil, false, err
	}
	if !p.pred.Eval(vals[lo:]) {
		return vals[:lo], false, nil
	}
	return vals, true, nil
}

// seekPath is the fetch step both index access methods share: charge CPU
// for one candidate RID, fetch its row (the random-I/O Fetch, judged and
// decoded under the page pin straight into the batch arena), and buffer its
// page for the monitors when it qualifies. Fetches are where table PIDs
// surface.
type seekPath struct {
	ctx      *Context
	tab      *catalog.Table
	pred     fetchPred
	monitors []*seekMonitor
	stats    OpStats

	// Batch arena: qualifying rows' values, cut into rows at bounds, and
	// their pages, which the monitors observe when the batch is emitted.
	vals   []tuple.Value
	bounds []int
	rows   []tuple.Row
	pids   []storage.PageID
}

func newSeekPath(ctx *Context, tab *catalog.Table, pred expr.Conjunction, label string) seekPath {
	return seekPath{ctx: ctx, tab: tab, pred: newFetchPred(ctx, pred, tab.Schema), stats: OpStats{Label: label}}
}

// attach adds a monitor (builder only).
func (s *seekPath) attach(m *seekMonitor) { s.monitors = append(s.monitors, m) }

// setDemand sets the columns the plan above reads; Build calls it.
func (s *seekPath) setDemand(need uint64) { s.pred.setDemand(need) }

// fetch runs the step for rid, keeping the row in the arena when it
// qualifies.
func (s *seekPath) fetch(rid storage.RID) error {
	if err := s.ctx.interrupted(); err != nil {
		return err
	}
	s.ctx.touch(1)
	vals, kept, err := s.pred.fetch(s.tab, s.vals, rid)
	if err != nil {
		return err
	}
	s.vals = vals // a rejected fetch leaves the length, keeps any grown capacity
	if kept {
		s.bounds = append(s.bounds, len(vals))
		if len(s.monitors) > 0 {
			s.pids = append(s.pids, rid.Page)
		}
	}
	return nil
}

// emit lets the monitors observe the kept rows' pages, hands b the rows kept
// since the last emit and empties the arena.
func (s *seekPath) emit(b *Batch) int {
	s.pids = observePages(s.monitors, s.pids)
	s.rows = sliceRows(s.rows, s.vals, s.bounds)
	s.vals = s.vals[:0]
	s.bounds = s.bounds[:0]
	b.Rows = s.rows
	b.Sel = identSel(b.Sel, len(s.rows))
	s.stats.ActRows += int64(len(s.rows))
	return len(s.rows)
}

// Schema implements Operator.
func (s *seekPath) Schema() *tuple.Schema { return s.tab.Schema }

// Stats implements Operator.
func (s *seekPath) Stats() *OpStats { return &s.stats }

// IndexSeek is the Index Seek + Fetch access method: look up the index over
// the plan's key ranges, fetch each qualifying row from the table, apply the
// full predicate, and emit survivors.
type IndexSeek struct {
	seekPath
	ix     *catalog.Index
	ranges []expr.KeyRange

	rangeIdx int
	it       *catalog.EntryIter
}

// NewIndexSeek builds the operator. pred must be bound to tab.Schema.
func NewIndexSeek(ctx *Context, tab *catalog.Table, ix *catalog.Index, ranges []expr.KeyRange, pred expr.Conjunction) *IndexSeek {
	return &IndexSeek{
		seekPath: newSeekPath(ctx, tab, pred, "IndexSeek("+tab.Name+"."+ix.Name+")"),
		ix:       ix, ranges: ranges,
	}
}

// Open implements Operator.
func (s *IndexSeek) Open() error {
	s.rangeIdx = 0
	return s.openRange()
}

func (s *IndexSeek) openRange() error {
	if s.rangeIdx >= len(s.ranges) {
		s.it = nil
		return nil
	}
	it, err := s.ix.SeekRange(s.ranges[s.rangeIdx])
	if err != nil {
		return err
	}
	s.it = it
	return nil
}

// NextBatch implements Operator: up to BatchSize qualifying fetches
// accumulate before the batch is handed up. The seek fills whole batches
// whatever the consumer's row cap, so a LIMIT over it may fetch up to a
// batch of rows it does not return.
func (s *IndexSeek) NextBatch(b *Batch) (int, error) {
	for s.it != nil && len(s.bounds) < BatchSize {
		if !s.it.Next() {
			if err := s.it.Err(); err != nil {
				return 0, err
			}
			s.it.Close()
			s.rangeIdx++
			if err := s.openRange(); err != nil {
				return 0, err
			}
			continue
		}
		if err := s.fetch(s.it.RID()); err != nil {
			return 0, err
		}
	}
	return s.emit(b), nil
}

// Close implements Operator.
func (s *IndexSeek) Close() error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	return nil
}

// IndexIntersect is the Index Intersection access method: collect the RID
// sets from two index lookups, intersect them, fetch the surviving rows in
// RID order, and apply the full predicate.
type IndexIntersect struct {
	seekPath
	ixA, ixB *catalog.Index
	rngA     []expr.KeyRange
	rngB     []expr.KeyRange

	rids []storage.RID
	pos  int
}

// NewIndexIntersect builds the operator.
func NewIndexIntersect(ctx *Context, tab *catalog.Table, ixA *catalog.Index, rngA []expr.KeyRange,
	ixB *catalog.Index, rngB []expr.KeyRange, pred expr.Conjunction) *IndexIntersect {
	return &IndexIntersect{
		seekPath: newSeekPath(ctx, tab, pred, "IndexIntersect("+tab.Name+")"),
		ixA:      ixA, ixB: ixB, rngA: rngA, rngB: rngB,
	}
}

func (s *IndexIntersect) collect(ix *catalog.Index, ranges []expr.KeyRange) (map[int64]struct{}, error) {
	set := make(map[int64]struct{})
	for _, r := range ranges {
		it, err := ix.SeekRange(r)
		if err != nil {
			return nil, err
		}
		var lastLeaf storage.PageID
		started := false
		for it.Next() {
			// Poll cancellation once per index leaf, not per entry.
			if leaf := it.LeafPage(); !started || leaf != lastLeaf {
				if err := s.ctx.interrupted(); err != nil {
					it.Close()
					return nil, err
				}
				started = true
				lastLeaf = leaf
			}
			s.ctx.touch(1)
			if err := s.ctx.Mem.Grow(8 + mapEntryOverhead); err != nil {
				it.Close()
				return nil, err
			}
			set[it.RID().AsInt64()] = struct{}{}
		}
		err = it.Err()
		it.Close()
		if err != nil {
			return nil, err
		}
	}
	return set, nil
}

// Open implements Operator: performs both index lookups and intersects.
func (s *IndexIntersect) Open() error {
	setA, err := s.collect(s.ixA, s.rngA)
	if err != nil {
		return err
	}
	setB, err := s.collect(s.ixB, s.rngB)
	if err != nil {
		return err
	}
	s.rids = s.rids[:0]
	for rid := range setA {
		if _, ok := setB[rid]; ok {
			s.rids = append(s.rids, storage.RIDFromInt64(rid))
		}
	}
	// Fetch in RID order: real engines sort the intersected RID list to
	// turn the fetch into a forward pass over the table.
	sort.Slice(s.rids, func(i, j int) bool {
		a, b := s.rids[i], s.rids[j]
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		return a.Slot < b.Slot
	})
	s.pos = 0
	return nil
}

// NextBatch implements Operator: the intersected RIDs are fetched in order
// until the consumer's row cap is met, so a LIMIT fetches no row past its
// last.
func (s *IndexIntersect) NextBatch(b *Batch) (int, error) {
	for s.pos < len(s.rids) && len(s.bounds) < b.limit() {
		s.pos++
		if err := s.fetch(s.rids[s.pos-1]); err != nil {
			return 0, err
		}
	}
	return s.emit(b), nil
}

// Close implements Operator.
func (s *IndexIntersect) Close() error { return nil }
