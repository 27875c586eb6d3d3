// Package experiments regenerates every table and figure of the paper's
// evaluation (§V-B) against the simulated engine: Table I (databases),
// Fig 6/7 (single-table speedup and overhead), Fig 8 (join speedup), Fig 9
// (page-sampling effectiveness), Fig 10 (clustering ratios of real data),
// Fig 11 (real-database speedups), plus the §V-B bit-vector accuracy
// observation and ablations the paper leaves as future work.
//
// Absolute numbers differ from the paper's (its substrate was SQL Server on
// 2007 hardware; ours is a simulator) but the shapes — who wins, by what
// factor, where the crossovers sit — are the reproduction target.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pagefeedback"
)

// Config scales the experiments.
type Config struct {
	// SyntheticRows sizes the synthetic table T (paper: 100M; default
	// 200k, a 1:500 scale that keeps every crossover).
	SyntheticRows int
	// RealScale scales the real-world-like databases relative to 1:100 of
	// Table I (1.0 = Table I / 100).
	RealScale float64
	// Seed drives all data generation and sampling.
	Seed int64
	// SampleFraction for DPSample monitors (default 0.01).
	SampleFraction float64
	// Out receives the printed tables (default: discard).
	Out io.Writer
}

// DefaultConfig returns the standard experiment scale.
func DefaultConfig() Config {
	return Config{
		SyntheticRows:  200000,
		RealScale:      1.0,
		Seed:           1,
		SampleFraction: 0.01,
	}
}

// normalize fills the unset scale fields from DefaultConfig. Seed is left
// alone: zero is a seed like any other.
func (c *Config) normalize() {
	d := DefaultConfig()
	if c.SyntheticRows <= 0 {
		c.SyntheticRows = d.SyntheticRows
	}
	if c.RealScale <= 0 {
		c.RealScale = d.RealScale
	}
	if c.SampleFraction <= 0 {
		c.SampleFraction = d.SampleFraction
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

func (c *Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.Out, format, args...)
}

// newEngine builds an engine sized for the experiments.
func newEngine() *pagefeedback.Engine {
	cfg := pagefeedback.DefaultConfig()
	cfg.PoolPages = 16384 // 128 MB: large enough that repeats are logical
	return pagefeedback.New(cfg)
}

// SpeedupResult is one query's paper-methodology measurement.
type SpeedupResult struct {
	Query       string
	Col         string
	Selectivity float64
	// PlanBefore/PlanAfter are the access/join operator labels.
	PlanBefore, PlanAfter string
	// TBefore/TAfter are the simulated execution times T and T'.
	TBefore, TAfter time.Duration
	// Speedup = (T - T')/T.
	Speedup float64
	// EstDPC/ActDPC are the optimizer's estimate and the fed-back count
	// for the primary monitored expression.
	EstDPC, ActDPC int64
}

// measureSpeedup applies the §V-B evaluation methodology to one query:
//
//  1. inject the accurate cardinality (obtained by running the counting
//     query offline),
//  2. optimize and execute plan P with monitoring on a cold cache → T,
//  3. feed the observed page counts back, re-optimize to P', execute → T',
//  4. report (T − T')/T.
func measureSpeedup(eng *pagefeedback.Engine, sqlText string, sampleFraction float64) (*SpeedupResult, error) {
	q, err := eng.ParseQuery(sqlText)
	if err != nil {
		return nil, err
	}
	// Each query is measured independently, per the paper's methodology:
	// earlier queries' feedback must not leak in — neither injections
	// (join-DPC ones are keyed by column, not predicate) nor the
	// self-tuning page-count histograms, which by design generalize
	// across predicates on a column.
	eng.Optimizer().ClearInjections()
	eng.Optimizer().ClearDPCHistograms()

	// Step 1: accurate cardinalities. The workload queries are COUNT
	// queries, so one execution yields the exact counts.
	pre, err := eng.RunQuery(q, nil)
	if err != nil {
		return nil, err
	}
	if len(q.Pred.Atoms) > 0 && len(pre.Rows) == 1 {
		// For single-table queries the count IS the predicate cardinality.
		if !q.IsJoin() {
			eng.Optimizer().InjectCardinality(q.Table, q.Pred, float64(pre.Rows[0][0].Int))
		}
	}
	if q.IsJoin() && len(q.Pred2.Atoms) > 0 {
		// Count the outer side's qualifying rows exactly.
		cq := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", q.Table2, q.Pred2)
		cres, err := eng.Query(cq, nil)
		if err == nil && len(cres.Rows) == 1 {
			eng.Optimizer().InjectCardinality(q.Table2, q.Pred2, float64(cres.Rows[0][0].Int))
		}
	}

	// Step 2: plan P with monitoring, cold cache.
	res1, err := eng.RunQuery(q, &pagefeedback.RunOptions{
		MonitorAll: true, SampleFraction: sampleFraction,
	})
	if err != nil {
		return nil, err
	}

	// Step 3: feed back, re-optimize, execute P'.
	eng.ApplyFeedback(res1)
	res2, err := eng.RunQuery(q, nil)
	if err != nil {
		return nil, err
	}

	out := &SpeedupResult{
		Query:      sqlText,
		PlanBefore: accessLabel(res1),
		PlanAfter:  accessLabel(res2),
		TBefore:    res1.SimulatedTime,
		TAfter:     res2.SimulatedTime,
	}
	if out.TBefore > 0 {
		out.Speedup = float64(out.TBefore-out.TAfter) / float64(out.TBefore)
	}
	for i, r := range res1.DPC {
		if r.Mechanism != pagefeedback.MechUnsatisfiable {
			out.ActDPC = r.DPC
			if i < len(res1.Stats.DPC) {
				out.EstDPC = res1.Stats.DPC[i].Estimated
			}
			break
		}
	}
	return out, nil
}

// accessLabel summarizes the plan's access/join strategy: the first
// operator below the aggregate/sort/filter shell. (An INL join has a single
// child, so descending through every single-child node would skip it.)
func accessLabel(res *pagefeedback.Result) string {
	stats := res.Stats.Plan
	for len(stats.Children) == 1 &&
		(strings.HasPrefix(stats.Label, "Aggregate") ||
			strings.HasPrefix(stats.Label, "Sort") ||
			strings.HasPrefix(stats.Label, "Filter")) {
		stats = stats.Children[0]
	}
	return stats.Label
}
