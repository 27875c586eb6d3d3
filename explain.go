package pagefeedback

import (
	"fmt"
	"strings"

	"pagefeedback/internal/exec"
	"pagefeedback/internal/plan"
)

// Explain optimizes the query and renders the chosen plan with estimates,
// without executing it. The second return value lists, for each predicate
// expression the optimizer costed with a distinct page count, where that
// estimate came from (analytical model, feedback injection, or the learned
// histogram) — the provenance a DBA checks before trusting a plan. For the
// runtime complement — the same tree annotated with actual rows, measured
// DPCs, and q-errors after really running the query — see ExplainAnalyze.
func (e *Engine) Explain(src string) (string, error) {
	return e.ExplainWithOptions(src, nil)
}

// ExplainWithOptions is Explain plus option-dependent detail: when opts
// request intra-query parallelism it appends the effective degree and the
// physical operator tree the executor would run, which shows exactly which
// scans partition (ParallelScan) and which stay serial because their subtree
// is order-sensitive. Nothing is executed.
func (e *Engine) ExplainWithOptions(src string, opts *RunOptions) (string, error) {
	q, err := e.ParseQuery(src)
	if err != nil {
		return "", err
	}
	node, err := e.PlanQuery(q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(plan.Format(node))
	if deg := opts.parallelDegree(); deg > 1 {
		ctx := exec.NewContext(e.pool)
		ctx.Parallelism = deg
		if ex, err := exec.Build(ctx, node, nil); err == nil {
			fmt.Fprintf(&b, "parallelism: %d\n", deg)
			writeOpTree(&b, ex.StatsSnapshot(), 1)
		}
	}

	// DPC provenance for the query's predicates.
	appendProvenance := func(table string, pred Conjunction) {
		if len(pred.Atoms) == 0 {
			return
		}
		est, err := e.opt.EstimateDPC(table, pred)
		if err != nil {
			return
		}
		source := "analytical (Yao)"
		if e.opt.HasInjectedDPC(table, pred) {
			source = "execution feedback"
		} else if cols := pred.Columns(); len(cols) == 1 {
			if h, ok := e.opt.DPCHistogram(table, cols[0]); ok && h.Len() > 0 {
				source = "self-tuning histogram"
			}
		}
		fmt.Fprintf(&b, "DPC(%s, %s) ~ %.0f pages  [%s]\n", table, pred, est, source)
	}
	appendProvenance(q.Table, q.Pred)
	if q.IsJoin() {
		appendProvenance(q.Table2, q.Pred2)
	}
	return b.String(), nil
}

// writeOpTree renders the physical operator labels as an indented tree.
func writeOpTree(b *strings.Builder, op exec.OperatorStats, depth int) {
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), op.Label)
	for _, c := range op.Children {
		writeOpTree(b, c, depth+1)
	}
}
