package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"pagefeedback"
	"pagefeedback/internal/datagen"
)

// sampleFraction is the DPSample fraction every monitored run uses (the
// paper's 1 % operating point).
const sampleFraction = 0.01

// The two prepared shapes of oltp_point; the literal ops render stmtRange
// with fresh constants.
const (
	stmtRange = "SELECT COUNT(padding) FROM t WHERE c1 BETWEEN ? AND ? AND c3 >= 0"
	stmtSeek  = "SELECT COUNT(padding) FROM t WHERE c2 BETWEEN ? AND ?"
	litRange  = "SELECT COUNT(padding) FROM t WHERE c1 BETWEEN %d AND %d AND c3 >= 0"
	litSeek   = "SELECT COUNT(padding) FROM t WHERE c2 BETWEEN %d AND %d"
)

// op is one generated operation. The engine sees only sql, or stmt + args.
type op struct {
	sql string // literal text; for a prepared op, the text its binding equals
	// stmt is the prepared statement to run (index into workload.stmts), or
	// -1 for literal SQL.
	stmt int
	args []pagefeedback.Value

	shape string           // sql.QueryKey: everything but the constants
	want  answer           // reference result
	dpc   map[string]int64 // reference DPC per monitored request, by DPCRequest.String()
	upper map[string]int64 // bit-vector monitors only: DPC of the inner side's own predicate
}

// workload is one row of the workload table in README.md.
type workload struct {
	name string
	// poolPages overrides the default 8,192-page pool.
	poolPages int
	// clients is the number of closed-loop callers in the timed pass.
	clients int
	// loop marks ops as §V-B feedback loops (three runs and a feedback step
	// each) instead of single queries.
	loop bool
	// opts are the RunOptions every op runs with (nil for loops, which set
	// their own per run).
	opts  *pagefeedback.RunOptions
	stmts []string
	gen   func(ds *datagen.Dataset, seed int64) []op
}

// degree is min(nproc, 4): the oltp_point client count and the analytic_diag
// intra-query degree.
func degree() int {
	n := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	if n > 4 {
		n = 4
	}
	return n
}

// workloads returns the five workloads in the order they are reported. Why
// each exists is in README.md and BENCHMARK.json; in short, which layers it
// leans on that the others bypass.
func workloads() []*workload {
	warm := func() *pagefeedback.RunOptions { return &pagefeedback.RunOptions{WarmCache: true} }
	return []*workload{
		{ // sql, plan cache, exec.Build, per-query bookkeeping; the only concurrent one
			name:    "oltp_point",
			clients: degree(),
			opts:    warm(),
			stmts:   []string{stmtRange, stmtSeek},
			gen:     genOLTP,
		},
		{ // operator CPU with monitors off: decode, EvalBatch, raw evaluation
			name:    "scan_plain",
			clients: 1,
			opts:    warm(),
			gen:     genScans,
		},
		{ // the same scans paying for monitors: FirstFail and core observation
			name:    "scan_monitored",
			clients: 1,
			opts:    &pagefeedback.RunOptions{WarmCache: true, MonitorAll: true, SampleFraction: sampleFraction},
			gen:     genScans,
		},
		{ // the paper's loop: optimizer, plan-cache invalidation, cold pool, disk model
			name:      "feedback_loop",
			poolPages: 1024,
			clients:   1,
			loop:      true,
			gen:       genLoops,
		},
		{ // RE-side operators, parallel exchange, bit-vector monitors, engine trace
			name:    "analytic_diag",
			clients: 1,
			// MemBudget is far above any query here: it only switches the
			// memory tracker on, so exec.mem_peak_kb reads something.
			opts: &pagefeedback.RunOptions{WarmCache: true, Parallelism: degree(), MonitorAll: true,
				SampleFraction: sampleFraction, Trace: true, MemBudget: 4 << 30},
			gen: genAnalytic,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func literal(sqlText string) op { return op{sql: sqlText, stmt: -1} }

// genOLTP: 4,096 ops, half prepared 3-row clustered ranges, a quarter
// prepared 20-row secondary seeks, a quarter the range shape as literal SQL,
// shuffled.
func genOLTP(ds *datagen.Dataset, seed int64) []op {
	const n = 4096
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < n/2:
			lo := rng.Int63n(int64(ds.Rows - 3))
			ops = append(ops, op{sql: fmt.Sprintf(litRange, lo, lo+2), stmt: 0,
				args: []pagefeedback.Value{pagefeedback.Int64(lo), pagefeedback.Int64(lo + 2)}})
		case i < n*3/4:
			lo := rng.Int63n(int64(ds.Rows - 20))
			ops = append(ops, op{sql: fmt.Sprintf(litSeek, lo, lo+19), stmt: 1,
				args: []pagefeedback.Value{pagefeedback.Int64(lo), pagefeedback.Int64(lo + 19)}})
		default:
			lo := rng.Int63n(int64(ds.Rows - 3))
			ops = append(ops, literal(fmt.Sprintf(litRange, lo, lo+2)))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// stratified draws n values from [lo, hi), one from each of n equal slices of
// the range, in slice order. Unlike n independent draws, their sum barely
// depends on the seed, so neither does the work an op list adds up to.
func stratified(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (float64(i)+rng.Float64())*(hi-lo)/float64(n)
	}
	return out
}

// singleTable is the Fig 6/7 workload in datagen.SingleTableQueries's form —
// per query column, perCol queries SELECT COUNT(padding) FROM t WHERE col <
// val at selectivities in [lo, hi) — with the selectivities stratified.
func singleTable(ds *datagen.Dataset, rng *rand.Rand, perCol int, lo, hi float64) []op {
	var ops []op
	for _, qc := range ds.QueryCols {
		for _, sel := range stratified(rng, perCol, lo, hi) {
			val := qc.Lo + int64(float64(qc.Hi-qc.Lo+1)*sel)
			ops = append(ops, literal(fmt.Sprintf("SELECT COUNT(padding) FROM %s WHERE %s < %d", ds.Table, qc.Name, val)))
		}
	}
	return ops
}

// joins is the Fig 8 workload in datagen.JoinQueries's form, cycling the join
// column over the correlation spectrum, with the outer selectivities
// stratified.
func joins(ds *datagen.Dataset, rng *rand.Rand, n int, lo, hi float64) []op {
	var ops []op
	for i, sel := range stratified(rng, n, lo, hi) {
		col := ds.QueryCols[i%len(ds.QueryCols)].Name
		ops = append(ops, literal(fmt.Sprintf(
			"SELECT COUNT(t.padding) FROM t, t1 WHERE t1.c1 < %d AND t1.%s = t.%s", int64(float64(ds.Rows)*sel), col, col)))
	}
	return ops
}

// genScans: the Fig 7 set (20) and the Fig 9 set (4) on t, and 12 scans of
// the all-integer f that no index helps (w has none; the v ranges are too
// wide for one to win).
func genScans(ds *datagen.Dataset, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := singleTable(ds, rng, 5, 0.01, 0.10)
	for k := 2; k <= 5; k++ {
		ops = append(ops, literal(datagen.MultiPredicateQuery(ds, k, 0.05).SQL))
	}
	n := float64(ds.Rows)
	for _, w := range stratified(rng, 4, 10, 90) {
		ops = append(ops, literal(fmt.Sprintf("SELECT COUNT(k) FROM f WHERE w < %d", int64(w))))
	}
	for _, v := range stratified(rng, 4, 0.3*n, 0.7*n) {
		ops = append(ops, literal(fmt.Sprintf("SELECT COUNT(k) FROM f WHERE v < %d", int64(v))))
	}
	for i, v := range stratified(rng, 4, 0, 0.5*n) {
		lo := int64(10 * i)
		ops = append(ops, literal(fmt.Sprintf("SELECT COUNT(k) FROM f WHERE w BETWEEN %d AND %d AND v >= %d",
			lo, lo+30+rng.Int63n(10), int64(v))))
	}
	return ops
}

// genLoops: the Fig 6 set (100) and the Fig 8 set (40), shuffled so every
// timed slice sees the same mix.
func genLoops(ds *datagen.Dataset, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := append(singleTable(ds, rng, 25, 0.01, 0.10), joins(ds, rng, 40, 0.002, 0.05)...)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// genAnalytic: 8 Fig 8 hash joins, 2 GROUP BY, 2 ORDER BY ... LIMIT. The
// fixed constants are the issue's at 120,000 rows and scale with the table.
func genAnalytic(ds *datagen.Dataset, seed int64) []op {
	ops := joins(ds, rand.New(rand.NewSource(seed)), 8, 0.002, 0.05)
	n := ds.Rows
	ops = append(ops,
		literal(fmt.Sprintf("SELECT c4, COUNT(c5) FROM t WHERE c5 < %d GROUP BY c4", n/20)),
		literal(fmt.Sprintf("SELECT c3, COUNT(c5) FROM t WHERE c4 < %d GROUP BY c3", n/10)),
		literal(fmt.Sprintf("SELECT c1, c5 FROM t WHERE c5 < %d ORDER BY c5 LIMIT 10", n/60)),
		literal(fmt.Sprintf("SELECT c1, c4 FROM t WHERE c3 < %d ORDER BY c4 LIMIT 100", n*3/40)),
	)
	return ops
}
