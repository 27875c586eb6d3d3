package pagefeedback

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"pagefeedback/internal/exec"
)

// AnalyzeOptions control FormatAnalyze rendering.
type AnalyzeOptions struct {
	// WithTimes includes the nondeterministic annotations: per-operator
	// wall time and call counts, admission wait, storage events, and trace
	// span counts. The zero value suppresses them, making the rendering a
	// pure function of the plan and the monitored counts — the mode golden
	// tests (and any other byte-exact consumer) use.
	WithTimes bool
}

// ExplainAnalyze parses, optimizes, and EXECUTES the query with tracing
// forced on, then renders the operator tree annotated with estimated vs
// actual rows, the estimated vs actual distinct page count of every
// monitored expression (each with its q-error — max(est/act, act/est), the
// standard estimation-quality measure), monitor mechanism and degradation
// markers, and per-operator wall time. It is Explain's runtime complement:
// Explain shows what the optimizer believed, ExplainAnalyze shows where it
// was wrong. The query really runs, with all side effects (cache state,
// admission, metrics).
func (e *Engine) ExplainAnalyze(src string, opts *RunOptions) (string, error) {
	return e.ExplainAnalyzeContext(context.Background(), src, opts)
}

// ExplainAnalyzeContext is ExplainAnalyze under a context.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, src string, opts *RunOptions) (string, error) {
	var o RunOptions
	if opts != nil {
		o = *opts
	}
	o.Trace = true
	res, err := e.QueryContext(ctx, src, &o)
	if err != nil {
		return "", err
	}
	return FormatAnalyze(res, AnalyzeOptions{WithTimes: true}), nil
}

// dpcAnnotation is one monitored expression resolved against its operator.
type dpcAnnotation struct {
	expr   string
	est    int64
	act    int64
	mech   string
	marker string
	table  string
	reason string
}

// FormatAnalyze renders the annotated operator tree for an executed
// result. Estimated DPCs are present when the result came through the
// query path (fillEstimates needs the parsed query); direct plan
// executions render est=0. Monitors that never attached to an operator
// (unsatisfiable requests, merged parallel shards) are listed separately.
func FormatAnalyze(res *Result, o AnalyzeOptions) string {
	var b strings.Builder
	byOp := make(map[int32][]dpcAnnotation)
	var unplanted []dpcAnnotation
	for i, r := range res.DPC {
		a := dpcAnnotation{
			act:    r.DPC,
			mech:   r.Mechanism,
			table:  r.Request.Table,
			reason: r.Reason,
		}
		if i < len(res.Stats.DPC) {
			a.est = res.Stats.DPC[i].Estimated
			a.expr = res.Stats.DPC[i].Expression
		}
		if r.Degraded {
			a.marker = ", quarantined"
		}
		if r.OpID >= 0 {
			byOp[r.OpID] = append(byOp[r.OpID], a)
		} else {
			unplanted = append(unplanted, a)
		}
	}
	writeAnalyzeOp(&b, res.Stats.Plan, 0, byOp, o)
	if len(unplanted) > 0 {
		b.WriteString("unplanted monitors:\n")
		for _, a := range unplanted {
			fmt.Fprintf(&b, "  dpc(%s, %s): est=%d act=%d [%s%s]", a.table, a.expr, a.est, a.act, a.mech, a.marker)
			if a.reason != "" {
				fmt.Fprintf(&b, " (%s)", a.reason)
			}
			b.WriteByte('\n')
		}
	}
	rt := &res.Stats.Runtime
	fmt.Fprintf(&b, "rows: %d\n", len(res.Rows))
	fmt.Fprintf(&b, "monitors: %d requested, %d quarantined\n", len(res.DPC), rt.QuarantinedMonitors)
	if o.WithTimes {
		fmt.Fprintf(&b, "time: wall=%s simulated=%s\n",
			res.WallTime.Round(time.Microsecond), res.SimulatedTime.Round(time.Microsecond))
		if rt.QueueWait > 0 {
			fmt.Fprintf(&b, "admission: wait=%s depth=%d\n",
				rt.QueueWait.Round(time.Microsecond), rt.QueueDepth)
		}
		if rt.PoolWaits > 0 || rt.ReadRetries > 0 {
			fmt.Fprintf(&b, "storage: pin-waits=%d (%s) read-retries=%d\n",
				rt.PoolWaits, rt.PoolWaitTime.Round(time.Microsecond), rt.ReadRetries)
		}
		if res.Trace != nil {
			fmt.Fprintf(&b, "trace: %d spans (%d dropped)\n",
				len(res.Trace.Spans), res.Trace.Dropped)
		}
	}
	return b.String()
}

// writeAnalyzeOp renders one operator line (and its DPC annotations) and
// recurses into the children.
func writeAnalyzeOp(b *strings.Builder, op exec.OperatorStats, depth int, byOp map[int32][]dpcAnnotation, o AnalyzeOptions) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s  (rows: est=%.0f act=%d q-err=%s)",
		ind, op.Label, op.EstRows, op.ActRows, qerrString(op.EstRows, float64(op.ActRows)))
	if o.WithTimes && (op.Wall > 0 || op.Calls > 0) {
		fmt.Fprintf(b, " (wall=%s calls=%d)", op.Wall.Round(time.Microsecond), op.Calls)
	}
	b.WriteByte('\n')
	for _, a := range byOp[op.OpID] {
		fmt.Fprintf(b, "%s  dpc %s: est=%d act=%d q-err=%s [%s%s]\n",
			ind, a.expr, a.est, a.act, qerrString(float64(a.est), float64(a.act)), a.mech, a.marker)
	}
	for _, c := range op.Children {
		writeAnalyzeOp(b, c, depth+1, byOp, o)
	}
}

// qError is the standard estimation-quality measure: max(est/act, act/est).
// Both sides zero is a perfect (vacuous) estimate, 1; one side zero is an
// unbounded miss, +Inf.
func qError(est, act float64) float64 {
	if est <= 0 && act <= 0 {
		return 1
	}
	if est <= 0 || act <= 0 {
		return math.Inf(1)
	}
	return math.Max(est/act, act/est)
}

// qerrString renders a q-error with two decimals ("inf" when unbounded).
func qerrString(est, act float64) string {
	q := qError(est, act)
	if math.IsInf(q, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", q)
}
