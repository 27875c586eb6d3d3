package exec

import (
	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// pageVisit is the one page step every table scan shares: SEScan and each
// ParallelScan worker. It works on encoded cells — the scan predicate's first
// failing atom is computed from the page bytes, prefix monitors consume that
// vector and the page id, and only the rows the predicate keeps are decoded.
// Rejected rows are materialized on exactly the
// pages a live sampled monitor (DPSample, join bit-vector) has in its sample,
// which the monitors can say before the page is visited because membership is
// a pure function of (seed, pid): the paper's "short-circuiting off on
// sampled pages only" (§III-B), applied to decoding as well as evaluation.
//
// A hash join over the scan may push its completed table down as one more
// filter (probe): a row that passes the predicate but has no build match is
// not decoded either. It is a semi-join, not part of the predicate: monitors
// and the scan's ActRows see predicate survivors only.
//
// Whole pages are still charged to the CPU clock, cancellation is polled once
// per page, and every monitor observes every page, so feedback and simulated
// time do not depend on how few rows were decoded.
type pageVisit struct {
	ctx      *Context
	it       *catalog.RowIter
	pred     expr.Conjunction // bound
	raw      expr.RawCompiled // pred over encoded cells; !OK selects the decoded fallback
	monitors []*scanMonitor
	probe    *joinProbe // pushed-down hash-join table, nil when none

	// batch holds the decoded rows of the current page: the survivors of
	// the predicate and the probe, or every row when keepAll.
	batch catalog.RowBatch
	// failIdx is each cell's first failing atom (-1 = the row passes), in
	// slot order. It is recorded only when something reads it: a monitor, or
	// survivor selection on a keepAll page.
	failIdx []int
	keepAll bool
	// passed counts the current page's rows that pass the predicate,
	// whether or not the probe matches them.
	passed int
}

// compileScanPred compiles a scan predicate to its encoded form at
// operator-construction time (single-threaded) and records the use in the
// execution context's statistics. A scan compiles this one evaluator; the
// decoded expr.Compiled is for operators that only ever see rows.
func compileScanPred(ctx *Context, pred expr.Conjunction, s *tuple.Schema) expr.RawCompiled {
	raw := expr.CompileRaw(pred, s)
	if raw.OK() && raw.Len() > 0 && ctx != nil {
		ctx.noteCompiled()
	}
	return raw
}

// next pins and judges the next data page: poll cancellation, charge CPU for
// all of the page's rows — and, with a probe pushed down, one more per
// predicate survivor, the join's per-row charge — and let every monitor
// observe the page in one callback. Returns false at end of scan, after
// closing the monitors' last page.
func (v *pageVisit) next() (bool, error) {
	v.failIdx = v.failIdx[:0]
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
	v.ctx.noteDecoded(int64(v.batch.Len()))
	if !v.raw.OK() {
		// Decoded fallback, for a predicate with no encoded form (an atom
		// comparing across kinds): every row was kept, and the generic
		// evaluator judges — and reports the planner bug by panicking.
		for _, row := range v.batch.Rows {
			fi := v.pred.FirstFail(row)
			if fi == -1 {
				v.passed++
			}
			v.failIdx = append(v.failIdx, fi)
		}
	}
	if v.probe != nil {
		v.ctx.touch(int64(v.passed))
	}
	for _, m := range v.monitors {
		m.safeObservePage(&v.batch, v.failIdx)
	}
	return true, nil
}

// EnterPage implements catalog.CellJudge: before the page's cells are judged,
// ask whether anything will read its rejected rows.
func (v *pageVisit) EnterPage(pid storage.PageID) {
	v.keepAll = !v.raw.OK()
	for i := 0; !v.keepAll && i < len(v.monitors); i++ {
		v.keepAll = v.monitors[i].wantsRows(pid)
	}
}

// Keep implements catalog.CellJudge: judge one encoded cell, by the
// predicate and then the probe. A malformed cell passes both (each accepts
// it unexamined), so it reaches the decoder and fails the scan there.
func (v *pageVisit) Keep(cell []byte) bool {
	if !v.raw.OK() {
		return true
	}
	fi := v.raw.FirstFail(cell)
	if len(v.monitors) > 0 {
		v.failIdx = append(v.failIdx, fi)
	}
	if fi != -1 {
		return v.keepAll
	}
	v.passed++
	return v.keepAll || v.probe == nil || v.probe.matchesCell(cell)
}

// survivors rebuilds sel as the indices into batch.Rows of the rows that
// pass the predicate and the probe: everything decoded on an ordinary page,
// the failIdx passes with a build match on a keepAll page.
func (v *pageVisit) survivors(sel []int) []int {
	if !v.keepAll {
		return identSel(sel, v.batch.Len())
	}
	sel = sel[:0]
	for i, fi := range v.failIdx {
		if fi == -1 && (v.probe == nil || len(v.probe.builds(v.batch.Rows[i])) > 0) {
			sel = append(sel, i)
		}
	}
	return sel
}
