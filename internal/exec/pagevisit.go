package exec

import (
	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// pageVisit is the one page step every table scan shares: SEScan and each
// ParallelScan worker. It works on encoded cells and decodes only what
// something reads:
//
//   - the scan predicate's first failing atom is computed from the page
//     bytes, and only the rows it keeps are decoded — and of those rows only
//     the columns the plan above demands, plus the columns of the predicate
//     and the monitors (batch.Skip leaves the rest zero-valued);
//   - prefix monitors read a per-page histogram of first-fail positions, so
//     any number of them costs O(atoms) per page;
//   - sampled monitors (DPSample, join bit-vector) judge the cells of the
//     pages in their sample in place, with short-circuiting off — the
//     paper's §III-B, applied to decoding as well as evaluation. Membership
//     is a pure function of (seed, pid), so it is known before the page's
//     first cell.
//
// A row the predicate rejects is never decoded: every bound predicate has an
// encoded form (expr.Atom.Bind rejects the cross-kind atoms that would not).
//
// A hash join over the scan may push its completed table down as one more
// filter (probe): a row that passes the predicate but has no build match is
// not decoded either. It is a semi-join, not part of the predicate: monitors
// and the scan's ActRows see predicate survivors only.
//
// Whole pages are still charged to the CPU clock, cancellation is polled once
// per page, and every monitor observes every page, so feedback and simulated
// time do not depend on how few rows or values were decoded.
type pageVisit struct {
	ctx      *Context
	it       *catalog.RowIter
	pred     expr.Conjunction // bound
	raw      expr.RawCompiled // pred over encoded cells
	monitors []*scanMonitor
	probe    *joinProbe // pushed-down hash-join table, nil when none

	// batch holds the decoded rows of the current page: the survivors of
	// the predicate and the probe.
	batch catalog.RowBatch
	// width is how many values each decoded row materializes.
	width int
	// hist[j] counts the current page's rows whose first failing atom is j
	// (see scanMonitor.endPage), kept only when a prefix monitor shorter
	// than the predicate reads it.
	hist []int
	// judging lists the monitors that judge the current page's cells.
	judging []*scanMonitor
	// passed counts the current page's rows that pass the predicate,
	// whether or not the probe matches them.
	passed int
}

// scanDecode is what a scan's page visits decode, fixed when the scan opens
// (every monitor is attached by then): skip is the batch's column mask, width
// the values per decoded row, hist the histogram length (0 = no prefix
// monitor reads one: a prefix as long as the predicate counts its passes).
type scanDecode struct {
	skip  uint64
	width int
	hist  int
}

// planDecode computes a scan's scanDecode from the parent's demand, the
// predicate and the monitors.
func planDecode(s *tuple.Schema, demand uint64, pred expr.Conjunction, monitors []*scanMonitor) scanDecode {
	want := demand | predMask(pred)
	hist := 0
	for _, m := range monitors {
		want |= m.columns()
		if m.kind == monExactPrefix && m.prefixLen < len(pred.Atoms) {
			hist = len(pred.Atoms)
		}
	}
	return scanDecode{skip: ^want, width: s.CountColumns(want), hist: hist}
}

// open readies the visit to walk it with the decode plan d.
func (v *pageVisit) open(it *catalog.RowIter, d scanDecode) {
	v.it = it
	v.batch.Skip = d.skip
	v.width = d.width
	if d.hist > 0 {
		v.hist = make([]int, d.hist)
	}
}

// next pins and judges the next data page: poll cancellation, charge CPU for
// all of the page's rows — and, with a probe pushed down, one more per
// predicate survivor, the join's per-row charge — and let every monitor
// close the page. Returns false at end of scan, after closing the monitors'
// last page.
func (v *pageVisit) next() (bool, error) {
	clear(v.hist)
	v.judging = v.judging[:0]
	v.passed = 0
	total, ok := v.it.NextPageJudged(&v.batch, v)
	if !ok {
		if err := v.it.Err(); err != nil {
			return false, err
		}
		for _, m := range v.monitors {
			m.safeFinish()
		}
		return false, nil
	}
	if err := v.ctx.interrupted(); err != nil {
		return false, err
	}
	v.ctx.touch(int64(total))
	v.ctx.noteDecoded(int64(v.batch.Len()), int64(v.batch.Len()*v.width))
	if v.probe != nil {
		v.ctx.touch(int64(v.passed))
	}
	for _, m := range v.monitors {
		m.safeEndPage(v.batch.PID, v.passed, v.hist)
	}
	return true, nil
}

// EnterPage implements catalog.CellJudge: before the page's cells are judged,
// let the sampled monitors decide whether the page is in their sample.
func (v *pageVisit) EnterPage(pid storage.PageID) {
	for _, m := range v.monitors {
		if m.enterPage(pid) {
			v.judging = append(v.judging, m)
		}
	}
}

// Keep implements catalog.CellJudge: let the sampled monitors judge one
// encoded cell, then judge it by the predicate and then the probe. The cell's
// length prefixes are walked once, here, for both. A malformed cell passes
// both unexamined, so it reaches the decoder and fails the scan there.
func (v *pageVisit) Keep(cell []byte) bool {
	for _, m := range v.judging {
		m.addCell(cell)
	}
	wellFormed := v.raw.WellFormed(cell)
	if wellFormed {
		if fi := v.raw.FirstFailWellFormed(cell); fi != -1 {
			if v.hist != nil {
				v.hist[fi]++
			}
			return false
		}
	}
	v.passed++
	return !wellFormed || v.probe == nil || v.probe.matchesWellFormed(cell)
}

// predMask is the mask of the columns a bound predicate reads; an unbound
// atom reads an unknown column, so it demands them all.
func predMask(p expr.Conjunction) uint64 {
	var m uint64
	for _, a := range p.Atoms {
		if !a.Bound() {
			return tuple.AllColumns
		}
		m |= ordMask(a.Ordinal())
	}
	return m
}

// ordMask is the mask selecting column ord (none for a negative ord). A mask
// has no bit for the columns from the 64th on: they are always decoded.
func ordMask(ord int) uint64 {
	if ord < 0 || ord >= 64 {
		return 0
	}
	return 1 << uint(ord)
}
