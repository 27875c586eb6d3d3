package pagefeedback

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentQueriesSeparateEngines runs full query workloads on
// independent engines in parallel. Exercised under -race in CI: engines
// must share no hidden mutable state (package-level caches, globals).
func TestConcurrentQueriesSeparateEngines(t *testing.T) {
	const engines = 3
	envs := make([]*Engine, engines)
	for i := range envs {
		envs[i] = buildTestDB(t, 5000)
	}
	var wg sync.WaitGroup
	errs := make(chan error, engines)
	for _, eng := range envs {
		wg.Add(1)
		go func(eng *Engine) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				want := int64(500 * (i + 1))
				sql := fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE c2 < %d", want)
				res, err := eng.Query(sql, &RunOptions{MonitorAll: i%2 == 0})
				if err != nil {
					errs <- err
					return
				}
				if got := res.Rows[0][0].Int; got != want {
					errs <- fmt.Errorf("count = %d, want %d", got, want)
					return
				}
			}
		}(eng)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentReadOnlyQueriesOneEngine runs read-only queries against ONE
// engine from many goroutines. WarmCache keeps each query from resetting
// the shared buffer pool under its neighbors; beyond that the pool, disk
// stats, and catalog must be safe for concurrent readers (-race verifies).
func TestConcurrentReadOnlyQueriesOneEngine(t *testing.T) {
	eng := buildTestDB(t, 8000)
	// Warm the cache once so concurrent runs find their pages resident.
	if _, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 8000", nil); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				want := int64(100 * (w + i + 1))
				sql := fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE c2 < %d", want)
				res, err := eng.Query(sql, &RunOptions{WarmCache: true})
				if err != nil {
					errs <- err
					return
				}
				if got := res.Rows[0][0].Int; got != want {
					errs <- fmt.Errorf("worker %d: count = %d, want %d", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	assertNoPins(t, eng)
}

// TestConcurrentFeedbackSurfaces drives every feedback surface of one
// engine at once: ApplyFeedback, InjectFromCache, ExportFeedback,
// ImportFeedback and InvalidateFeedback. The feedback cache and the
// optimizer are the only state they share, each behind its own lock; run
// under -race, this holds that no other shared state is left unguarded.
func TestConcurrentFeedbackSurfaces(t *testing.T) {
	eng := buildTestDB(t, 5000)
	var results []*Result
	for _, sql := range []string{
		"SELECT COUNT(padding) FROM t WHERE c2 < 100",
		"SELECT COUNT(padding) FROM t WHERE c5 < 300 AND c2 < 900",
	} {
		res, err := eng.Query(sql, &RunOptions{MonitorAll: true})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	eng.ApplyFeedback(results[0])
	var dump bytes.Buffer
	if err := eng.ExportFeedback(&dump); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f(i)
			}
		}()
	}
	run(func(i int) { eng.ApplyFeedback(results[i%len(results)]) })
	run(func(int) {
		for _, res := range results {
			eng.InjectFromCache(res.Query)
		}
	})
	run(func(int) {
		if err := eng.ExportFeedback(new(bytes.Buffer)); err != nil {
			t.Error(err)
		}
	})
	run(func(int) {
		if _, err := eng.ImportFeedback(bytes.NewReader(dump.Bytes())); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if i%10 == 0 {
			eng.InvalidateFeedback("t")
		}
	})
	wg.Wait()
}
