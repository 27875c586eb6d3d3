// Command dbshell is an interactive shell over the engine: run queries
// against a demo database, watch estimated-vs-actual page counts, apply
// feedback, and export/import the learned state.
//
//	$ go run ./cmd/dbshell
//	pagefeedback> SELECT COUNT(padding) FROM t WHERE c2 < 2000
//	pagefeedback> \explain SELECT COUNT(padding) FROM t WHERE c2 < 2000
//	pagefeedback> \feedback apply
//	pagefeedback> \help
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pagefeedback"
	"pagefeedback/internal/datagen"
	"pagefeedback/internal/plan"
)

const helpText = `commands:
  SELECT ...            run a query (monitoring per \monitor; default on)
  \explain SELECT ...   show the plan and page-count provenance, don't run
  \prepare NAME SQL     prepare a parameterized statement (? or $n placeholders)
  \exec NAME ARG...     execute a prepared statement ('str', 2007-06-01, or int args)
  \analyze SELECT ...   run the query and show the tree with est-vs-actual
                        rows and page counts, q-errors, and operator times
  \monitor on|off       toggle DPC monitoring for subsequent queries
  \parallel N           set intra-query parallelism (0/1 = serial)
  \trace on|off         record span traces for subsequent queries
  \trace show           print the last traced query's span listing
  \metrics              print engine metrics (Prometheus text format)
  \slowlog              list queries captured by the slow-query log
                        (arm it with the -slowlog flag)
  \feedback apply       inject the page counts observed by the last query
  \feedback show        list the feedback cache
  \feedback export F    write learned state (cache/histograms/curves) to file F
  \feedback import F    load learned state from file F
  \tables               list tables with rows/pages
  \stats                show I/O, buffer-pool, admission, and last-query counters
  \help                 this text
  \quit                 exit`

func main() {
	rows := flag.Int("rows", 100000, "demo synthetic table rows")
	seed := flag.Int64("seed", 1, "data seed")
	real := flag.Bool("real", false, "also build the five real-world-like databases (slower)")
	timeout := flag.Duration("timeout", 0, "per-query timeout (0 = none), e.g. 30s")
	parallel := flag.Int("parallel", 0, "intra-query parallelism for scans and hash-join probes (0/1 = serial)")
	slowlog := flag.Duration("slowlog", 0, "slow-query threshold (0 = off), e.g. 250ms; slow queries are captured with trace and plan (\\slowlog)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (covers the whole session)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	cfg := pagefeedback.DefaultConfig()
	cfg.SlowQueryThreshold = *slowlog
	eng := pagefeedback.New(cfg)
	fmt.Fprintf(os.Stderr, "building synthetic database (%d rows)...\n", *rows)
	if _, err := datagen.BuildSynthetic(eng, *rows, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *real {
		fmt.Fprintln(os.Stderr, "building real-world-like databases...")
		if _, err := datagen.BuildAllReal(eng, 0.3, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Fprintln(os.Stderr, `ready — try: SELECT COUNT(padding) FROM t WHERE c2 < 2000  (\help for commands)`)

	sh := &shell{eng: eng, monitor: true, timeout: *timeout, parallel: *parallel, out: os.Stdout}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("pagefeedback> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line != "" && !sh.handle(line) {
			return
		}
		fmt.Print("pagefeedback> ")
	}
}

type shell struct {
	eng      *pagefeedback.Engine
	monitor  bool
	trace    bool
	timeout  time.Duration
	parallel int
	last     *pagefeedback.Result
	prepared map[string]*pagefeedback.Stmt
	out      *os.File
}

// runOpts assembles the run options from the shell toggles.
func (s *shell) runOpts() *pagefeedback.RunOptions {
	return &pagefeedback.RunOptions{
		MonitorAll:  s.monitor,
		Timeout:     s.timeout,
		Parallelism: s.parallel,
		Trace:       s.trace,
	}
}

// handle processes one line; false means quit.
func (s *shell) handle(line string) bool {
	switch {
	case strings.HasPrefix(line, `\`):
		return s.meta(line)
	default:
		s.runQuery(line)
	}
	return true
}

func (s *shell) meta(line string) bool {
	fields := strings.Fields(line)
	switch strings.ToLower(fields[0]) {
	case `\quit`, `\q`, `\exit`:
		return false
	case `\help`, `\h`:
		fmt.Fprintln(s.out, helpText)
	case `\monitor`:
		if len(fields) == 2 {
			s.monitor = strings.EqualFold(fields[1], "on")
		}
		fmt.Fprintf(s.out, "monitoring: %v\n", s.monitor)
	case `\parallel`:
		if len(fields) == 2 {
			if n, err := strconv.Atoi(fields[1]); err == nil && n >= 0 {
				s.parallel = n
			}
		}
		fmt.Fprintf(s.out, "parallelism: %d\n", s.parallel)
	case `\explain`:
		sql := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
		out, err := s.eng.ExplainWithOptions(sql, &pagefeedback.RunOptions{Parallelism: s.parallel})
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return true
		}
		fmt.Fprint(s.out, out)
	case `\analyze`:
		sql := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
		out, err := s.eng.ExplainAnalyze(sql, s.runOpts())
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return true
		}
		fmt.Fprint(s.out, out)
	case `\trace`:
		if len(fields) == 2 {
			switch strings.ToLower(fields[1]) {
			case "show":
				if s.last == nil || s.last.Trace == nil {
					fmt.Fprintln(s.out, "no traced query (\\trace on, then run one)")
				} else {
					fmt.Fprint(s.out, s.last.Trace.Render())
				}
				return true
			default:
				s.trace = strings.EqualFold(fields[1], "on")
			}
		}
		fmt.Fprintf(s.out, "tracing: %v\n", s.trace)
	case `\metrics`:
		if err := s.eng.WriteMetricsPrometheus(s.out); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
	case `\slowlog`:
		slow := s.eng.SlowQueries()
		if len(slow) == 0 {
			fmt.Fprintln(s.out, "slow-query log empty (arm with -slowlog DURATION)")
		}
		for _, sq := range slow {
			fmt.Fprintf(s.out, "--- %s  wall=%v simulated=%v  %s\n%s",
				sq.At.Format("15:04:05.000"), sq.WallTime, sq.SimulatedTime, sq.Query, sq.Analyze)
		}
	case `\tables`:
		for _, t := range s.eng.Catalog().Tables() {
			kind := "heap"
			if len(t.ClusterCols) > 0 {
				kind = "clustered on " + strings.Join(t.ClusterCols, ",")
			}
			fmt.Fprintf(s.out, "  %-12s %9d rows %7d pages  %s  (%d indexes)\n",
				t.Name, t.NumRows(), t.NumPages(), kind, len(t.Indexes()))
		}
	case `\prepare`:
		s.prepare(line, fields)
	case `\exec`:
		s.exec(fields[1:])
	case `\stats`:
		s.stats()
	case `\feedback`:
		s.feedback(fields[1:])
	default:
		fmt.Fprintf(s.out, "unknown command %s (\\help for help)\n", fields[0])
	}
	return true
}

// stats prints the session-wide I/O, buffer-pool, and admission counters,
// plus the robustness telemetry of the last query: how long it queued, what
// it retried, waited, or shed. This is the operator's view of the overload
// machinery — the counters the stress and chaos tests assert on.
func (s *shell) stats() {
	io := s.eng.Pool().Disk().Stats()
	fmt.Fprintf(s.out, "disk:      %d physical reads (%d sequential, %d random), %d written\n",
		io.PhysicalReads, io.SequentialReads, io.RandomReads, io.PagesWritten)
	fmt.Fprintf(s.out, "           %d read retries, %d checksum errors, simulated I/O %v\n",
		io.ReadRetries, io.ChecksumErrors, io.SimulatedIO)
	ps := s.eng.Pool().Stats()
	fmt.Fprintf(s.out, "pool:      %d logical reads, hit ratio %.1f%%, %d evictions, %d prefetched\n",
		ps.LogicalReads, 100*ps.HitRatio(), ps.Evictions, ps.Prefetched)
	fmt.Fprintf(s.out, "           %d frame waits totalling %v (wait budget %v)\n",
		ps.Waits, ps.WaitTime, s.eng.Pool().WaitBudget())
	as := s.eng.AdmissionStats()
	if as.Limit > 0 {
		fmt.Fprintf(s.out, "admission: limit %d, %d active, %d queued (peak %d)\n",
			as.Limit, as.Active, as.Queued, as.PeakQueued)
		fmt.Fprintf(s.out, "           %d admitted, %d rejected, %d timed out, queue wait %v\n",
			as.Admitted, as.Rejected, as.TimedOut, as.WaitTime)
	} else {
		fmt.Fprintln(s.out, "admission: unlimited (no concurrency gate)")
	}
	pc := s.eng.PlanCacheStats()
	fmt.Fprintf(s.out, "plancache: %d entries, %d hits, %d misses, %d stale, %d evicted\n",
		pc.Entries, pc.Hits, pc.Misses, pc.Stale, pc.Evictions)
	fmt.Fprintf(s.out, "           %d invalidations (feedback epochs), %d instantiation fallbacks\n",
		pc.Invalidations, pc.Fallbacks)
	if s.last == nil {
		fmt.Fprintln(s.out, "last query: none")
		return
	}
	rt := s.last.Stats.Runtime
	fmt.Fprintf(s.out, "last query: queue wait %v (depth %d), %d read retries, %d pool waits (%v)\n",
		rt.QueueWait, rt.QueueDepth, rt.ReadRetries, rt.PoolWaits, rt.PoolWaitTime)
	fmt.Fprintf(s.out, "            mem peak %d bytes, %d monitors shed, %d quarantined\n",
		rt.MemPeakBytes, rt.ShedMonitors, rt.QuarantinedMonitors)
	fmt.Fprintf(s.out, "            plan cache hit: %v, %d compiled predicates\n",
		rt.PlanCacheHit, rt.CompiledPredicates)
	fmt.Fprintf(s.out, "            %d batches processed\n", rt.BatchesProcessed)
	fmt.Fprintf(s.out, "            %d rows touched, %d decoded by table scans (%d values)\n",
		rt.RowsTouched, rt.RowsDecoded, rt.ValuesDecoded)
}

// prepare handles \prepare NAME SELECT ... — the SQL is everything after the
// name, placeholders included.
func (s *shell) prepare(line string, fields []string) {
	if len(fields) < 3 {
		fmt.Fprintln(s.out, `usage: \prepare NAME SELECT ... WHERE col < ?`)
		return
	}
	name := fields[1]
	sql := strings.TrimSpace(line[strings.Index(line, name)+len(name):])
	stmt, err := s.eng.Prepare(sql)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	if s.prepared == nil {
		s.prepared = make(map[string]*pagefeedback.Stmt)
	}
	s.prepared[name] = stmt
	fmt.Fprintf(s.out, "prepared %s (%d parameter(s))\n", name, stmt.NumParams())
}

// exec handles \exec NAME ARG... — arguments are coerced by the statement's
// parameter kinds: integers stay integers, everything else binds as a string
// (dates in YYYY-MM-DD form are parsed by the binder).
func (s *shell) exec(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(s.out, `usage: \exec NAME ARG...`)
		return
	}
	stmt, ok := s.prepared[args[0]]
	if !ok {
		fmt.Fprintf(s.out, "no prepared statement %q (\\prepare first)\n", args[0])
		return
	}
	vals := make([]pagefeedback.Value, 0, len(args)-1)
	for _, a := range args[1:] {
		if unq := strings.Trim(a, `'"`); unq != a {
			vals = append(vals, pagefeedback.Str(unq))
		} else if n, err := strconv.ParseInt(a, 10, 64); err == nil {
			vals = append(vals, pagefeedback.Int64(n))
		} else {
			vals = append(vals, pagefeedback.Str(a))
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	res, err := stmt.QueryContext(ctx, vals, s.runOpts())
	stop()
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	s.last = res
	s.printResult(res)
}

func (s *shell) feedback(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(s.out, `usage: \feedback apply|show|export F|import F`)
		return
	}
	switch strings.ToLower(args[0]) {
	case "apply":
		if s.last == nil {
			fmt.Fprintln(s.out, "no monitored query to apply")
			return
		}
		s.eng.ApplyFeedback(s.last)
		fmt.Fprintf(s.out, "applied %d observation(s); re-run the query to see the new plan\n", len(s.last.DPC))
	case "show":
		entries := s.eng.FeedbackCache().Entries()
		if len(entries) == 0 {
			fmt.Fprintln(s.out, "feedback cache empty")
		}
		for _, e := range entries {
			fmt.Fprintf(s.out, "  %s | %-40s card=%-8d dpc=%-6d %s\n",
				e.Table, e.Predicate, e.Cardinality, e.DPC, e.Mechanism)
		}
	case "export":
		if len(args) < 2 {
			fmt.Fprintln(s.out, "usage: \\feedback export FILE")
			return
		}
		if err := s.eng.ExportFeedbackToFile(args[1]); err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return
		}
		fmt.Fprintf(s.out, "exported to %s\n", args[1])
	case "import":
		if len(args) < 2 {
			fmt.Fprintln(s.out, "usage: \\feedback import FILE")
			return
		}
		n, err := s.eng.ImportFeedbackFromFile(args[1])
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			return
		}
		fmt.Fprintf(s.out, "imported %d entries\n", n)
	default:
		fmt.Fprintln(s.out, `usage: \feedback apply|show|export F|import F`)
	}
}

func (s *shell) runQuery(sql string) {
	// Ctrl-C cancels the running query (first poll aborts it) instead of
	// killing the shell; the scope is released as soon as the query ends.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	res, err := s.eng.QueryContext(ctx, sql, s.runOpts())
	stop()
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	s.last = res
	s.printResult(res)
}

func (s *shell) printResult(res *pagefeedback.Result) {
	fmt.Fprint(s.out, plan.Format(res.Plan))
	for _, row := range res.Rows {
		fmt.Fprintf(s.out, "  -> %s\n", row)
	}
	cached := ""
	if res.PlanCacheHit {
		cached = ", plan cached"
	}
	fmt.Fprintf(s.out, "simulated time %v  (%d physical reads, %d random%s)\n",
		res.SimulatedTime, res.Stats.Runtime.PhysicalReads, res.Stats.Runtime.RandomReads, cached)
	for i, x := range res.Stats.DPC {
		if res.DPC[i].Mechanism == pagefeedback.MechUnsatisfiable {
			continue
		}
		flag := ""
		if x.Actual > 0 && x.Estimated > 3*x.Actual {
			flag = "  <-- overestimated"
		}
		fmt.Fprintf(s.out, "DPC %s: est %d, actual %d (%s)%s\n",
			x.Expression, x.Estimated, x.Actual, x.Mechanism, flag)
	}
}
