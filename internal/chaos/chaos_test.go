package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pagefeedback"
	"pagefeedback/internal/exec"
	"pagefeedback/internal/storage"
)

// chaosEnv builds the standard workload once per test.
func chaosEnv(t *testing.T, cfg pagefeedback.Config, n int) *Env {
	t.Helper()
	env, err := BuildEnv(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// waitGoroutines polls until the goroutine count returns to (near) base.
// A parallel scan's channel-closing goroutine can exit a moment after the
// query returns, so a small settle window is part of the contract, a growing
// count is not.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d running, baseline %d", n, base)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosSweep is the exhaustive fault-schedule sweep: every generated
// schedule runs serially and in parallel, and every outcome must satisfy the
// global invariants (typed error or correct result, zero pin leaks,
// untouched feedback cache on failure, baseline-identical feedback on
// success).
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is long")
	}
	base := runtime.NumGoroutine()
	env := chaosEnv(t, pagefeedback.DefaultConfig(), 3000)
	reads := make([]int64, len(env.Queries))
	for q := range env.Queries {
		reads[q] = env.CountReads(q)
		if reads[q] == 0 {
			t.Fatalf("query %d issued no reads", q)
		}
	}
	schedules := GenerateSchedules(reads)
	if len(schedules) < 200 {
		t.Fatalf("sweep has only %d schedules, want >= 200", len(schedules))
	}
	t.Logf("sweeping %d schedules x {serial, parallel} (reads per query: %v)", len(schedules), reads)

	failed := 0
	for _, s := range schedules {
		for _, par := range []int{0, 4} {
			s.Parallelism = par
			out := env.Run(s)
			if err := env.Check(s, out); err != nil {
				t.Error(err)
				if failed++; failed > 20 {
					t.Fatal("too many invariant violations; stopping sweep")
				}
			}
		}
	}
	waitGoroutines(t, base)
}

// TestChaosWriteFaults exercises the write-fault surface: dirty pages whose
// flush fails at the k-th write must surface an error (not a panic), leave
// no pins behind, and the pool must fully recover once the fault clears.
func TestChaosWriteFaults(t *testing.T) {
	env := chaosEnv(t, pagefeedback.DefaultConfig(), 1000)
	pool := env.Eng.Pool()
	disk := pool.Disk()
	scratch := disk.CreateFile()

	for _, failAfter := range []int64{0, 1, 2} {
		// Dirty four scratch pages, then make the flush fail partway.
		for i := 0; i < 4; i++ {
			pp, err := pool.NewPage(scratch, 0x7f)
			if err != nil {
				t.Fatalf("NewPage: %v", err)
			}
			pp.Unpin(true)
		}
		disk.FailWritesAfter(failAfter)
		err := pool.Flush()
		disk.FailWritesAfter(-1)
		if err == nil {
			t.Fatalf("failAfter=%d: flush succeeded with write faults armed", failAfter)
		}
		if !errors.Is(err, storage.ErrInjectedWriteFault) {
			t.Fatalf("failAfter=%d: flush error %v, want ErrInjectedWriteFault", failAfter, err)
		}
		if n := pool.Pinned(); n != 0 {
			t.Fatalf("failAfter=%d: %d pins leaked by failed flush", failAfter, n)
		}
		// The fault is gone; the remaining dirty pages must flush cleanly.
		if err := pool.Flush(); err != nil {
			t.Fatalf("failAfter=%d: recovery flush: %v", failAfter, err)
		}
		// And the engine must still answer queries correctly.
		out := env.Run(Schedule{Name: "post-write-fault"})
		if err := env.Check(Schedule{Name: "post-write-fault"}, out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosPoolExhaustion pins most of a minimum-size pool and runs queries
// against the remainder, under both the fail-fast policy (wait budget 0) and
// the bounded-wait policy. Every outcome must be a typed error or a correct
// result, and the pool must recover completely once the pins drop.
func TestChaosPoolExhaustion(t *testing.T) {
	cfg := pagefeedback.DefaultConfig()
	cfg.PoolPages = 64
	cfg.PoolWaitBudget = 0
	env := chaosEnv(t, cfg, 600)
	pool := env.Eng.Pool()
	scratch := pool.Disk().CreateFile()

	for _, budget := range []time.Duration{0, 3 * time.Millisecond} {
		pool.SetWaitBudget(budget)
		for _, pinCount := range []int{48, 56, 62} {
			pins := make([]*storage.PinnedPage, 0, pinCount)
			for i := 0; i < pinCount; i++ {
				pp, err := pool.NewPage(scratch, 0x7f)
				if err != nil {
					break // pool too full to pin more; proceed with what we have
				}
				pins = append(pins, pp)
			}
			s := Schedule{Name: "pool-exhaustion", WarmCache: true}
			out := env.Run(s)
			if out.Err != nil {
				var qe *pagefeedback.QueryError
				if !errors.As(out.Err, &qe) {
					t.Fatalf("budget=%v pins=%d: untyped error %v", budget, pinCount, out.Err)
				}
			}
			for _, pp := range pins {
				pp.Unpin(false)
			}
			if n := pool.Pinned(); n != 0 {
				t.Fatalf("budget=%v pins=%d: %d pins leaked", budget, pinCount, n)
			}
			// Pool pressure gone: the same query must now succeed.
			out = env.Run(s)
			if err := env.Check(s, out); err != nil {
				t.Fatalf("budget=%v pins=%d: after release: %v", budget, pinCount, err)
			}
		}
	}
	pool.SetWaitBudget(0)
}

// TestChaosPoolWaitRideThrough verifies graceful degradation: a query that
// hits an exhausted pool inside its wait budget rides the stall out and
// succeeds once frames free up, instead of failing fast.
func TestChaosPoolWaitRideThrough(t *testing.T) {
	cfg := pagefeedback.DefaultConfig()
	cfg.PoolPages = 64
	cfg.PoolWaitBudget = 2 * time.Second
	env := chaosEnv(t, cfg, 600)
	pool := env.Eng.Pool()
	scratch := pool.Disk().CreateFile()

	pins := make([]*storage.PinnedPage, 0, 62)
	for i := 0; i < 62; i++ {
		pp, err := pool.NewPage(scratch, 0x7f)
		if err != nil {
			break
		}
		pins = append(pins, pp)
	}
	done := make(chan Outcome, 1)
	go func() {
		done <- env.Run(Schedule{Name: "ride-through", WarmCache: true})
	}()
	time.Sleep(20 * time.Millisecond)
	for _, pp := range pins {
		pp.Unpin(false)
	}
	out := <-done
	if out.Err != nil {
		// The query may have threaded the needle through free shards before
		// the release, or waited; either way a typed error is the only
		// acceptable failure (e.g. if it burned its budget pre-release).
		var qe *pagefeedback.QueryError
		if !errors.As(out.Err, &qe) {
			t.Fatalf("untyped error: %v", out.Err)
		}
	} else if err := env.Check(Schedule{Name: "ride-through", WarmCache: true}, out); err != nil {
		t.Fatal(err)
	}
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
}

// TestChaosAdmissionOverload floods a gated engine and verifies the overload
// surface: every query either succeeds with correct rows, is rejected with
// ErrKindOverload (queue full or queue-deadline expiry), or times out — and
// the gate's books balance.
func TestChaosAdmissionOverload(t *testing.T) {
	cfg := pagefeedback.DefaultConfig()
	cfg.MaxConcurrent = 2
	cfg.MaxQueueDepth = 4
	env := chaosEnv(t, cfg, 1000)

	const queries = 16
	var wg sync.WaitGroup
	outs := make([]Outcome, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := Schedule{Name: "overload", Query: i % len(env.Queries), WarmCache: true}
			if i%3 == 0 {
				s.Timeout = 5 * time.Millisecond
			}
			outs[i] = env.Run(s)
		}(i)
	}
	wg.Wait()

	succeeded := 0
	for i, out := range outs {
		s := Schedule{Name: "overload", Query: i % len(env.Queries), WarmCache: true}
		if out.Err != nil {
			var qe *pagefeedback.QueryError
			if !errors.As(out.Err, &qe) {
				t.Fatalf("query %d: untyped error %v", i, out.Err)
			}
			switch qe.Kind {
			case pagefeedback.ErrKindOverload, pagefeedback.ErrKindTimeout, pagefeedback.ErrKindCancelled:
			default:
				t.Errorf("query %d: unexpected kind %q: %v", i, qe.Kind, out.Err)
			}
			continue
		}
		succeeded++
		if err := env.Check(s, out); err != nil {
			t.Error(err)
		}
	}
	if succeeded == 0 {
		t.Error("no query survived the overload")
	}
	st := env.Eng.AdmissionStats()
	if st.Active != 0 || st.Queued != 0 {
		t.Errorf("gate not drained: %+v", st)
	}
	if st.PeakQueued > cfg.MaxQueueDepth {
		t.Errorf("queue exceeded its bound: peak %d > %d", st.PeakQueued, cfg.MaxQueueDepth)
	}
	if total := st.Admitted + st.Rejected + st.TimedOut; total < queries {
		t.Errorf("gate accounting: admitted %d + rejected %d + timedOut %d < %d submissions",
			st.Admitted, st.Rejected, st.TimedOut, queries)
	}
}

// TestChaosBackoffDeterminism pins the retry path's determinism: the same
// transient burst at the same read position yields byte-identical stats
// (retries and simulated backoff time) run after run.
func TestChaosBackoffDeterminism(t *testing.T) {
	env := chaosEnv(t, pagefeedback.DefaultConfig(), 1000)
	s := Schedule{Name: "backoff-determinism", TransientAfter: 5, TransientLen: 3}
	first := env.Run(s)
	if first.Err != nil {
		t.Fatalf("absorbed burst failed: %v", first.Err)
	}
	if first.Res.Stats.Runtime.ReadRetries != 3 {
		t.Fatalf("ReadRetries = %d, want 3", first.Res.Stats.Runtime.ReadRetries)
	}
	for i := 0; i < 3; i++ {
		again := env.Run(s)
		if again.Err != nil {
			t.Fatalf("run %d: %v", i, again.Err)
		}
		if again.Res.Stats.Runtime.ReadRetries != first.Res.Stats.Runtime.ReadRetries {
			t.Fatalf("run %d: ReadRetries %d != %d", i,
				again.Res.Stats.Runtime.ReadRetries, first.Res.Stats.Runtime.ReadRetries)
		}
		if again.Res.Stats.Runtime.SimulatedIO != first.Res.Stats.Runtime.SimulatedIO {
			t.Fatalf("run %d: SimulatedIO %v != %v — backoff jitter is not deterministic", i,
				again.Res.Stats.Runtime.SimulatedIO, first.Res.Stats.Runtime.SimulatedIO)
		}
	}
}

// paritySweep runs one fault-schedule sweep against two engines over
// identical data, named x and y in messages, with feedback application
// interleaved. Every schedule must produce the same error-ness and error
// rendering on both, and on success the same rows, the same deterministic
// runtime stats (rows touched, reads, simulated cost, memory peak), and
// byte-identical DPC feedback; after every refeed round the exported
// feedback state is byte-identical too. Both outcomes must also pass the
// invariant Check. ok, when not nil, sees x's outcome of every parity
// schedule that succeeded.
func paritySweep(t *testing.T, xe, ye *Env, x, y string, ok func(Schedule, Outcome)) {
	t.Helper()
	reads := make([]int64, len(xe.Queries))
	for q := range xe.Queries {
		reads[q] = xe.CountReads(q)
	}
	for i, s := range GenerateSchedules(reads) {
		a, b := xe.Run(s), ye.Run(s)
		// Wall-clock-bounded schedules are exempt from outcome parity: one
		// engine may legitimately be faster (a plan-cache hit skips the
		// optimizer) and beat a deadline the other misses. The invariant
		// Check below still applies to both outcomes.
		parity := s.Timeout == 0
		switch {
		case !parity:
		case (a.Err == nil) != (b.Err == nil):
			t.Fatalf("%s: %s err=%v, %s err=%v", s, x, a.Err, y, b.Err)
		case a.Err != nil:
			if a.Err.Error() != b.Err.Error() {
				t.Errorf("%s: error diverges: %q vs %q", s, a.Err, b.Err)
			}
		default:
			if ok != nil {
				ok(s, a)
			}
			if !equalStrings(a.Rows, b.Rows) {
				t.Errorf("%s: rows diverge", s)
			}
			if got, want := renderDPC(a.Res), renderDPC(b.Res); got != want {
				t.Errorf("%s: DPC feedback diverges:\n %s: %s\n %s: %s", s, x, got, y, want)
			}
			if d := diffRuntime(a.Res.Stats.Runtime, b.Res.Stats.Runtime); d != "" {
				t.Errorf("%s: runtime stats diverge: %s", s, d)
			}
		}
		if err := xe.Check(s, a); err != nil {
			t.Errorf("%s: %v", x, err)
		}
		if err := ye.Check(s, b); err != nil {
			t.Errorf("%s: %v", y, err)
		}
		// A wall-clock race can let one engine finish inside a timeout the
		// other misses; Check has then landed that run's feedback (and its
		// histogram observations) on one engine only. Mirror the surviving
		// result to the other engine, so the export comparison below sees
		// content divergence, never speed divergence. Parity schedules
		// cannot get here asymmetric — differing error-ness is fatal above.
		if a.Err == nil && b.Err != nil {
			ye.Eng.ApplyFeedback(a.Res)
		} else if b.Err == nil && a.Err != nil {
			xe.Eng.ApplyFeedback(b.Res)
		}
		// Every 40 schedules, land fresh feedback on both engines: every
		// cached plan goes stale and must be re-optimized while the sweep
		// keeps injecting faults. Then the exported feedback state must
		// match byte for byte.
		if i%40 == 39 {
			for q := range xe.Queries {
				oa := xe.Run(Schedule{Name: "refeed", Query: q})
				ob := ye.Run(Schedule{Name: "refeed", Query: q})
				if oa.Err != nil || ob.Err != nil {
					t.Fatalf("refeed failed: %v / %v", oa.Err, ob.Err)
				}
				xe.Eng.ApplyFeedback(oa.Res)
				ye.Eng.ApplyFeedback(ob.Res)
			}
			if !bytes.Equal(exportFeedback(t, xe.Eng), exportFeedback(t, ye.Eng)) {
				t.Fatalf("exported feedback diverges after refeed round at schedule %d", i)
			}
		}
	}
}

// TestChaosPlanCacheParity runs the parity sweep against two engines over
// identical data — plan cache enabled vs disabled — so cached entries go
// stale mid-sweep. Skipping the optimizer must be observationally
// invisible. A divergence means the cache changed semantics under faults
// (served a stale plan, leaked a fault into the template, or altered the
// read sequence a schedule pins faults to).
func TestChaosPlanCacheParity(t *testing.T) {
	const n = 1500
	offCfg := pagefeedback.DefaultConfig()
	offCfg.PlanCacheSize = -1
	cached := chaosEnv(t, pagefeedback.DefaultConfig(), n)
	uncached := chaosEnv(t, offCfg, n)

	paritySweep(t, cached, uncached, "cached", "uncached", nil)
	st := cached.Eng.PlanCacheStats()
	if st.Hits == 0 || st.Stale == 0 {
		t.Errorf("sweep did not exercise the cache (hits and staleness both required): %+v", st)
	}
	if st := uncached.Eng.PlanCacheStats(); st != (pagefeedback.PlanCacheStats{}) {
		t.Errorf("cache-off engine has non-zero stats: %+v", st)
	}
}

// TestChaosVectorizedParity runs the parity sweep against two engines on the
// batch executor over identical data: under faults, batch execution must be
// deterministic down to the DPC feedback and exported feedback state, and
// every successful run must have moved its rows in batches. A fault-free
// spot-check at degree 4 then requires the partitioned batch executor to
// return the serial run's rows and DPC feedback (its stats carry
// timing-dependent random-read and pool counters, so they are out of scope).
func TestChaosVectorizedParity(t *testing.T) {
	const n = 1500
	first := chaosEnv(t, pagefeedback.DefaultConfig(), n)
	second := chaosEnv(t, pagefeedback.DefaultConfig(), n)

	paritySweep(t, first, second, "first", "second", func(s Schedule, out Outcome) {
		if out.Res.Stats.Runtime.BatchesProcessed == 0 {
			t.Errorf("%s: successful run processed no batch", s)
		}
	})
	for q := range first.Queries {
		s := Schedule{Name: "par-spot", Query: q}
		p := s
		p.Parallelism = 4
		a, b := first.Run(s), second.Run(p)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: parallel spot-check failed: %v / %v", p, a.Err, b.Err)
		}
		if !equalStrings(a.Rows, b.Rows) {
			t.Errorf("%s: parallel rows diverge from serial", p)
		}
		if got, want := renderDPC(b.Res), renderDPC(a.Res); got != want {
			t.Errorf("%s: parallel DPC feedback diverges:\n parallel: %s\n serial: %s", p, got, want)
		}
	}
}

// diffRuntime compares the deterministic slice of two runs' runtime stats —
// everything except wall-clock, queueing, pool-contention, and the
// execution-shape diagnostics (BatchesProcessed, PlanCacheHit) — and returns
// a description of the first divergence, or "" when they match.
func diffRuntime(a, b exec.RuntimeStats) string {
	type field struct {
		name string
		a, b any
	}
	for _, f := range []field{
		{"SimulatedIO", a.SimulatedIO, b.SimulatedIO},
		{"SimulatedCPU", a.SimulatedCPU, b.SimulatedCPU},
		{"SimulatedTotal", a.SimulatedTotal, b.SimulatedTotal},
		{"PhysicalReads", a.PhysicalReads, b.PhysicalReads},
		{"RandomReads", a.RandomReads, b.RandomReads},
		{"LogicalReads", a.LogicalReads, b.LogicalReads},
		{"RowsTouched", a.RowsTouched, b.RowsTouched},
		{"QuarantinedMonitors", a.QuarantinedMonitors, b.QuarantinedMonitors},
		{"ReadRetries", a.ReadRetries, b.ReadRetries},
		{"MemPeakBytes", a.MemPeakBytes, b.MemPeakBytes},
	} {
		if f.a != f.b {
			return fmt.Sprintf("%s: %v vs %v", f.name, f.a, f.b)
		}
	}
	return ""
}

// exportFeedback renders an engine's persisted feedback state.
func exportFeedback(t *testing.T, eng *pagefeedback.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.ExportFeedback(&buf); err != nil {
		t.Fatalf("ExportFeedback: %v", err)
	}
	return buf.Bytes()
}
