// Package chaos is a deterministic fault-schedule harness for the engine.
//
// A Schedule pins every fault to an exact position in a query's execution —
// "the k-th physical read fails", "a transient burst of length 3 starts
// after read 17", "the context is cancelled at read 9" — so a sweep over
// schedules explores the engine's failure surface reproducibly, with no
// reliance on timing or randomness. Each schedule runs real queries through
// the public engine API, serially and in parallel, and the harness asserts
// the global robustness invariants:
//
//   - every outcome is either the correct result or a typed *QueryError —
//     never a panic, never silently wrong rows;
//   - no buffer-pool pins leak, whatever the failure point;
//   - the feedback cache is never updated by a failed or degraded run;
//   - successful runs produce feedback byte-identical to a fault-free
//     baseline, serial or parallel, cold or warm.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"pagefeedback"
)

// Schedule is one deterministic fault-injection plan for one query. The zero
// value of every fault field means "that fault is off"; a zero-value
// Schedule is a plain fault-free run.
type Schedule struct {
	// Name labels the schedule in failure reports.
	Name string
	// Query indexes Env.Queries.
	Query int
	// FailReadAfter > 0 lets that many physical reads succeed, then fails
	// every subsequent read with a hard injected fault.
	FailReadAfter int64
	// TransientLen > 0 injects a burst of that many transient read faults
	// starting after TransientAfter successful ReadPage calls. Bursts no
	// longer than the backoff policy's retry limit are absorbed; longer ones
	// surface as storage errors.
	TransientAfter int64
	TransientLen   int64
	// CancelAtRead > 0 cancels the query's context at exactly that ReadPage
	// call (1-based).
	CancelAtRead int64
	// Timeout bounds the query's wall-clock time (0 = none).
	Timeout time.Duration
	// MemBudget bounds the query's operator memory in bytes (0 = none).
	MemBudget int64
	// Parallelism is the intra-query degree (0 = serial).
	Parallelism int
	// WarmCache skips the cold-cache reset before the run.
	WarmCache bool
}

// String renders a compact identity for error messages.
func (s Schedule) String() string {
	return fmt.Sprintf("%s{q%d read=%d trans=%d@%d cancel=%d to=%v mem=%d par=%d warm=%v}",
		s.Name, s.Query, s.FailReadAfter, s.TransientLen, s.TransientAfter,
		s.CancelAtRead, s.Timeout, s.MemBudget, s.Parallelism, s.WarmCache)
}

// Outcome is the observed result of running one schedule.
type Outcome struct {
	// Err is the query error, nil on success.
	Err error
	// Rows is the canonical (order-insensitive) rendering of the result.
	Rows []string
	// Res is the raw result (nil on error).
	Res *pagefeedback.Result
}

// Env is a workload the sweep runs schedules against: one engine, a fixed
// set of queries, and their fault-free baselines.
type Env struct {
	Eng     *pagefeedback.Engine
	Queries []string

	baseRows [][]string // canonical rows per query, fault-free serial run
	baseDPC  []string   // canonical DPC feedback per query
	baseSig  string     // feedback-cache signature after applying baselines
}

// BuildEnv creates an engine with the standard chaos workload: a clustered
// table t(c1,c2,c5,pad) of n rows — c2 correlated with the clustering key,
// c5 a random permutation, both indexed — and a join partner u(c1,c2). The
// query set covers a predicate scan, an index-driven selection, a join, and
// a memory-hungry group-aggregate.
func BuildEnv(cfg pagefeedback.Config, n int) (*Env, error) {
	eng := pagefeedback.New(cfg)
	schema := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "c1", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "c2", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "c5", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "pad", Kind: pagefeedback.KindString},
	)
	if _, err := eng.CreateClusteredTable("t", schema, []string{"c1"}); err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(11)).Perm(n)
	pad := strings.Repeat("x", 40)
	rows := make([]pagefeedback.Row, n)
	for i := range rows {
		rows[i] = pagefeedback.Row{
			pagefeedback.Int64(int64(i)), pagefeedback.Int64(int64(i)),
			pagefeedback.Int64(int64(perm[i])), pagefeedback.Str(pad),
		}
	}
	if err := eng.Load("t", rows); err != nil {
		return nil, err
	}
	for _, c := range []string{"c2", "c5"} {
		if _, err := eng.CreateIndex("ix_"+c, "t", c); err != nil {
			return nil, err
		}
	}
	uschema := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "c1", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "c2", Kind: pagefeedback.KindInt},
	)
	if _, err := eng.CreateClusteredTable("u", uschema, []string{"c1"}); err != nil {
		return nil, err
	}
	urows := make([]pagefeedback.Row, n/4)
	for i := range urows {
		urows[i] = pagefeedback.Row{pagefeedback.Int64(int64(i)), pagefeedback.Int64(int64(i * 4))}
	}
	if err := eng.Load("u", urows); err != nil {
		return nil, err
	}
	if err := eng.Analyze("t", "u"); err != nil {
		return nil, err
	}
	env := &Env{
		Eng: eng,
		Queries: []string{
			fmt.Sprintf("SELECT COUNT(pad) FROM t WHERE c2 < %d", n/8),
			fmt.Sprintf("SELECT c1, c5 FROM t WHERE c5 < %d", n/50),
			fmt.Sprintf("SELECT COUNT(pad) FROM t, u WHERE u.c1 < %d AND u.c2 = t.c2", n/16),
			fmt.Sprintf("SELECT c2, COUNT(*) FROM t WHERE c1 < %d GROUP BY c2", n/4),
		},
	}
	if err := env.captureBaselines(); err != nil {
		return nil, err
	}
	return env, nil
}

// captureBaselines records the fault-free serial outcome of every query and
// the cache signature after feeding all of them back. It runs two passes:
// the first drives the optimizer to its post-feedback steady state (feedback
// can flip plan choices, and with them the monitoring mechanisms), the
// second captures the baselines the sweep is compared against.
func (e *Env) captureBaselines() error {
	for pass := 0; pass < 2; pass++ {
		e.baseRows = e.baseRows[:0]
		e.baseDPC = e.baseDPC[:0]
		for i, q := range e.Queries {
			out := e.Run(Schedule{Name: "baseline", Query: i})
			if out.Err != nil {
				return fmt.Errorf("chaos: baseline for %q failed: %w", q, out.Err)
			}
			e.baseRows = append(e.baseRows, out.Rows)
			e.baseDPC = append(e.baseDPC, renderDPC(out.Res))
			e.Eng.ApplyFeedback(out.Res)
		}
	}
	e.baseSig = e.CacheSignature()
	return nil
}

// Run executes one schedule and returns the outcome. All fault injection is
// disarmed before it returns, whatever happened.
func (e *Env) Run(s Schedule) Outcome {
	return e.RunContext(context.Background(), s)
}

// RunContext is Run under a caller-supplied context; cancelling it aborts
// the schedule's query like any other engine cancellation.
func (e *Env) RunContext(ctx context.Context, s Schedule) Outcome {
	return e.runQuery(ctx, e.Queries[s.Query], s)
}

func (e *Env) runQuery(parent context.Context, sql string, s Schedule) Outcome {
	disk := e.Eng.Pool().Disk()
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	if at := s.CancelAtRead; at > 0 {
		disk.SetReadHook(func(seq int64) {
			if seq == at {
				cancel()
			}
		})
	}
	if s.FailReadAfter > 0 {
		disk.FailReadsAfter(s.FailReadAfter)
	}
	if s.TransientLen > 0 {
		disk.InjectTransientFaultsAt(s.TransientAfter, s.TransientLen)
	}
	defer func() {
		disk.FailReadsAfter(-1)
		disk.FailWritesAfter(-1)
		disk.InjectTransientFaults(0)
		disk.SetReadHook(nil)
	}()
	res, err := e.Eng.QueryContext(ctx, sql, &pagefeedback.RunOptions{
		MonitorAll:     true,
		SampleFraction: 1.0,
		Timeout:        s.Timeout,
		MemBudget:      s.MemBudget,
		Parallelism:    s.Parallelism,
		WarmCache:      s.WarmCache,
	})
	if err != nil {
		return Outcome{Err: err}
	}
	return Outcome{Rows: canonicalRows(res), Res: res}
}

// Check asserts every schedule-level invariant against the outcome,
// returning a descriptive error on the first violation.
func (e *Env) Check(s Schedule, out Outcome) error {
	if out.Err != nil {
		var qe *pagefeedback.QueryError
		if !errors.As(out.Err, &qe) {
			return fmt.Errorf("%s: untyped error %T: %v", s, out.Err, out.Err)
		}
		if sig := e.CacheSignature(); sig != e.baseSig {
			return fmt.Errorf("%s: failed run changed the feedback cache", s)
		}
	} else {
		want := e.baseRows[s.Query]
		if !equalStrings(out.Rows, want) {
			return fmt.Errorf("%s: wrong rows: got %d, want %d", s, len(out.Rows), len(want))
		}
		// Feeding a successful run back must reproduce the baseline cache:
		// degraded results are skipped, everything else is baseline-
		// identical because the monitors are deterministic.
		e.Eng.ApplyFeedback(out.Res)
		if sig := e.CacheSignature(); sig != e.baseSig {
			return fmt.Errorf("%s: successful run perturbed the feedback cache", s)
		}
		if got := renderDPC(out.Res); got != e.baseDPC[s.Query] {
			return fmt.Errorf("%s: DPC feedback differs from baseline:\n got: %s\nwant: %s",
				s, got, e.baseDPC[s.Query])
		}
	}
	if n := e.Eng.Pool().Pinned(); n != 0 {
		return fmt.Errorf("%s: %d page pins leaked", s, n)
	}
	return nil
}

// CacheSignature renders the feedback cache's full contents; two equal
// signatures mean identical caches.
func (e *Env) CacheSignature() string {
	var b strings.Builder
	for _, en := range e.Eng.FeedbackCache().Entries() {
		fmt.Fprintf(&b, "%s|%s|%d|%d|%s|%v|%d\n",
			en.Table, en.Pred, en.Cardinality, en.DPC, en.Mechanism, en.Exact, en.TableVersion)
	}
	return b.String()
}

// CountReads measures how many physical reads a fault-free cold serial run
// of query q issues — the domain fault positions are drawn from.
func (e *Env) CountReads(q int) int64 {
	disk := e.Eng.Pool().Disk()
	var max int64
	disk.SetReadHook(func(seq int64) {
		if seq > max {
			max = seq
		}
	})
	defer disk.SetReadHook(nil)
	out := e.Run(Schedule{Name: "probe", Query: q})
	if out.Err != nil {
		return 0
	}
	return max
}

// GenerateSchedules enumerates the standard sweep for the environment:
// reads[i] is query i's fault-free read count (from CountReads). Fault
// positions are spread deterministically across each query's read sequence.
func GenerateSchedules(reads []int64) []Schedule {
	var out []Schedule
	add := func(s Schedule) { out = append(out, s) }
	positions := func(r int64, k int) []int64 {
		if r <= 0 {
			r = 16
		}
		ps := make([]int64, 0, k)
		for i := 0; i < k; i++ {
			p := 1 + (r-1)*int64(i)/int64(k-1)
			ps = append(ps, p)
		}
		return ps
	}
	for q, r := range reads {
		for _, p := range positions(r, 8) {
			add(Schedule{Name: "hard-read", Query: q, FailReadAfter: p})
		}
		for _, p := range []int64{0, r / 4, r / 2, 3 * r / 4} {
			for _, l := range []int64{1, 3, 5} {
				add(Schedule{Name: "transient", Query: q, TransientAfter: p, TransientLen: l})
			}
		}
		for _, p := range positions(r, 6) {
			add(Schedule{Name: "cancel", Query: q, CancelAtRead: p})
		}
		for _, to := range []time.Duration{time.Nanosecond, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond} {
			add(Schedule{Name: "timeout", Query: q, Timeout: to})
		}
		for _, m := range []int64{512, 8 << 10, 64 << 10, 1 << 20, 8 << 20} {
			add(Schedule{Name: "mem", Query: q, MemBudget: m})
		}
		// Composite schedules: independent failure mechanisms landing in the
		// same run, probing interactions between recovery paths.
		for _, p := range positions(r, 4) {
			add(Schedule{Name: "trans+cancel", Query: q,
				TransientAfter: p / 2, TransientLen: 3, CancelAtRead: p})
			add(Schedule{Name: "hard+warm", Query: q, FailReadAfter: p, WarmCache: true})
			add(Schedule{Name: "mem+trans", Query: q,
				MemBudget: 32 << 10, TransientAfter: p, TransientLen: 2})
			add(Schedule{Name: "cancel+mem", Query: q, CancelAtRead: p, MemBudget: 64 << 10})
		}
	}
	return out
}

// canonicalRows renders and sorts the result rows so comparisons ignore row
// order (parallel runs interleave partitions).
func canonicalRows(res *pagefeedback.Result) []string {
	rows := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var b strings.Builder
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		rows = append(rows, b.String())
	}
	sort.Strings(rows)
	return rows
}

// renderDPC renders the monitored feedback of a run, sorted, for
// byte-identical comparison against the baseline.
func renderDPC(res *pagefeedback.Result) string {
	lines := make([]string, 0, len(res.DPC))
	for _, r := range res.DPC {
		expr := r.Request.Pred.String()
		if r.Request.Join {
			expr = "<join>"
		}
		lines = append(lines, fmt.Sprintf("%s|%s|%s|%d|%d|%v|%v",
			r.Request.Table, expr, r.Mechanism, r.DPC, r.Cardinality, r.Exact, r.Degraded))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
