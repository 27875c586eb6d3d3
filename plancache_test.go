package pagefeedback

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pagefeedback/internal/plan"
)

// TestPlanCacheHitOnRepeat: a repeated query template is served from the
// cache, and a textually different instance in the same selectivity bucket
// shares the template while still binding its own constants.
func TestPlanCacheHitOnRepeat(t *testing.T) {
	eng := buildTestDB(t, 20000)

	res1, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 3000", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.PlanCacheHit {
		t.Error("first execution reported a cache hit")
	}
	res2, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 3000", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanCacheHit {
		t.Error("repeated query missed the plan cache")
	}
	if res2.Rows[0][0].Int != 3000 {
		t.Errorf("cached execution count = %d, want 3000", res2.Rows[0][0].Int)
	}
	if plan.Format(res1.Plan) != plan.Format(res2.Plan) {
		t.Errorf("cached plan differs from optimized plan:\n%s\nvs\n%s",
			plan.Format(res2.Plan), plan.Format(res1.Plan))
	}

	// Different constant, same selectivity bucket: shares the template but
	// must evaluate ITS constants, not the template's.
	res3, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 3100", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.PlanCacheHit {
		t.Error("same-bucket instance missed the plan cache")
	}
	if res3.Rows[0][0].Int != 3100 {
		t.Errorf("same-bucket instance count = %d, want 3100 (template constants leaked?)",
			res3.Rows[0][0].Int)
	}

	st := eng.PlanCacheStats()
	if st.Hits < 2 || st.Misses < 1 || st.Entries < 1 {
		t.Errorf("stats = %+v, want >=2 hits, >=1 miss, >=1 entry", st)
	}
}

// TestPlanCacheStaleAfterFeedback is the correctness core of the feature:
// once ApplyFeedback changes what the optimizer believes, the cached plan
// must NOT be served again — the very next execution re-optimizes and runs
// the feedback-informed plan.
func TestPlanCacheStaleAfterFeedback(t *testing.T) {
	eng := buildTestDB(t, 20000)
	const sql = "SELECT COUNT(padding) FROM t WHERE c2 < 300"

	res1, err := eng.Query(sql, &RunOptions{MonitorAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, isScan := res1.Plan.(*plan.Agg).Input.(*plan.Scan); !isScan {
		t.Fatalf("pre-feedback plan is %s, want Scan", res1.Plan.(*plan.Agg).Input.Label())
	}
	res2, err := eng.Query(sql, &RunOptions{MonitorAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanCacheHit {
		t.Fatal("repeat before feedback should hit")
	}

	eng.ApplyFeedback(res1)

	res3, err := eng.Query(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.PlanCacheHit {
		t.Error("post-feedback execution served the stale cached plan")
	}
	if _, isSeek := res3.Plan.(*plan.Agg).Input.(*plan.Seek); !isSeek {
		t.Errorf("post-feedback plan is %s, want the feedback-informed Seek",
			res3.Plan.(*plan.Agg).Input.Label())
	}
	if res3.Rows[0][0].Int != 300 {
		t.Errorf("post-feedback count = %d, want 300", res3.Rows[0][0].Int)
	}
	st := eng.PlanCacheStats()
	if st.Stale == 0 {
		t.Errorf("stats = %+v, want a stale-entry drop recorded", st)
	}
	if st.Invalidations == 0 {
		t.Errorf("stats = %+v, want feedback invalidations recorded", st)
	}

	// The re-optimized plan is cached in turn.
	res4, err := eng.Query(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res4.PlanCacheHit {
		t.Error("re-optimized plan was not re-cached")
	}
	if _, isSeek := res4.Plan.(*plan.Agg).Input.(*plan.Seek); !isSeek {
		t.Errorf("re-cached plan is %s, want Seek", res4.Plan.(*plan.Agg).Input.Label())
	}
}

// TestPlanCacheStaleAfterAnalyze: refreshed table statistics are a feedback
// mutation like any other — Analyze must invalidate cached plans (the
// regression this suite pins: Analyze used to bypass the epoch bump).
func TestPlanCacheStaleAfterAnalyze(t *testing.T) {
	eng := buildTestDB(t, 20000)
	const sql = "SELECT COUNT(padding) FROM t WHERE c2 < 3000"
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("warm-up did not populate the cache: %+v", st)
	}
	if err := eng.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Error("post-Analyze execution served a plan cached against old statistics")
	}
	if st := eng.PlanCacheStats(); st.Stale == 0 {
		t.Errorf("stats = %+v, want the Analyze invalidation to surface as a stale drop", st)
	}
}

// TestPlanCacheStaleAfterCreateIndex: DDL changes the available access
// paths, so cached plans for the table must be re-optimized.
func TestPlanCacheStaleAfterCreateIndex(t *testing.T) {
	eng := buildTestDB(t, 20000)
	const sql = "SELECT COUNT(c2) FROM t WHERE c5 < 3000"
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.CreateIndex("ix_pad", "t", "padding"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCacheHit {
		t.Error("post-CreateIndex execution served a pre-DDL cached plan")
	}
}

// TestPlanCacheOffIdentity runs a feedback workload on two engines over
// identical data — cache enabled vs disabled — and requires identical
// results, identical executed plans, and byte-identical exported feedback.
// The cache is a pure performance layer; it must be invisible to semantics.
func TestPlanCacheOffIdentity(t *testing.T) {
	build := func(cacheSize int) *Engine {
		cfg := DefaultConfig()
		cfg.PoolPages = 8192
		cfg.PlanCacheSize = cacheSize
		return buildTestDBCfg(t, 20000, cfg)
	}
	cached, uncached := build(0), build(-1)

	// Feedback is applied during round 0 only: later rounds exercise the
	// cache's hit path (feedback in every round would — correctly —
	// invalidate every entry before it could ever be reused).
	workload := []string{
		"SELECT COUNT(padding) FROM t WHERE c2 < 300",
		"SELECT COUNT(padding) FROM t WHERE c2 < 3000",
		"SELECT COUNT(padding) FROM t WHERE c5 < 600",
		"SELECT COUNT(padding) FROM t WHERE c2 BETWEEN 5000 AND 5400",
	}
	for round := 0; round < 3; round++ {
		for _, sql := range workload {
			opts := &RunOptions{MonitorAll: true}
			ra, err := cached.Query(sql, opts)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := uncached.Query(sql, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ra.Rows[0][0].Int != rb.Rows[0][0].Int {
				t.Fatalf("round %d %q: cached count %d != uncached %d",
					round, sql, ra.Rows[0][0].Int, rb.Rows[0][0].Int)
			}
			if pa, pb := plan.Format(ra.Plan), plan.Format(rb.Plan); pa != pb {
				t.Fatalf("round %d %q: plans diverge:\ncached:\n%s\nuncached:\n%s",
					round, sql, pa, pb)
			}
			if ra.SimulatedTime != rb.SimulatedTime {
				t.Fatalf("round %d %q: simulated time diverges: %v vs %v",
					round, sql, ra.SimulatedTime, rb.SimulatedTime)
			}
			if round == 0 {
				cached.ApplyFeedback(ra)
				uncached.ApplyFeedback(rb)
			}
		}
	}

	var fa, fb bytes.Buffer
	if err := cached.ExportFeedback(&fa); err != nil {
		t.Fatal(err)
	}
	if err := uncached.ExportFeedback(&fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa.Bytes(), fb.Bytes()) {
		t.Errorf("exported feedback differs between cache-on and cache-off engines:\ncached:\n%s\nuncached:\n%s",
			fa.String(), fb.String())
	}

	if st := cached.PlanCacheStats(); st.Hits == 0 {
		t.Errorf("cache-on engine never hit: %+v", st)
	}
	if st := uncached.PlanCacheStats(); st != (PlanCacheStats{}) {
		t.Errorf("cache-off engine has non-zero stats: %+v", st)
	}
}

// TestConcurrentPreparedCacheStress hammers one prepared statement from
// many goroutines while feedback application and re-analysis invalidate the
// cache underneath — every execution must still return the exact count for
// its own bound constant. Run with -race in CI's parallel-stress job.
func TestConcurrentPreparedCacheStress(t *testing.T) {
	eng := buildTestDB(t, 20000)
	stmt, err := eng.Prepare("SELECT COUNT(padding) FROM t WHERE c2 < ?")
	if err != nil {
		t.Fatal(err)
	}
	// Warm once so WarmCache runs below keep the buffer pool stable.
	if _, err := stmt.Query([]Value{Int64(100)}, nil); err != nil {
		t.Fatal(err)
	}

	const workers, iters = 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				want := int64(100 * ((w*iters+i)%20 + 1))
				res, err := stmt.Query([]Value{Int64(want)}, &RunOptions{WarmCache: true})
				if err != nil {
					errs <- err
					return
				}
				if got := res.Rows[0][0].Int; got != want {
					errs <- fmt.Errorf("worker %d: count = %d, want %d (stale or cross-bound plan)",
						w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			res, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 300",
				&RunOptions{MonitorAll: true, WarmCache: true})
			if err != nil {
				errs <- err
				return
			}
			eng.ApplyFeedback(res)
			if err := eng.Analyze("t"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := eng.PlanCacheStats()
	if st.Hits == 0 {
		t.Errorf("stress run never hit the cache: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Errorf("stress run never invalidated: %+v", st)
	}
}
