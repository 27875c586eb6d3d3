package pagefeedback

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pagefeedback/internal/plan"
)

// raiseProcs lifts GOMAXPROCS to at least n for the test's duration so the
// engine's degree clamp does not silently serialize parallel runs on small CI
// machines; correctness of the parallel mode does not depend on real cores.
func raiseProcs(t *testing.T, n int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= n {
		return
	}
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestParallelStressMixedDegreesOneEngine is the -race workhorse for the
// intra-query parallel mode: many goroutines run serial and parallel queries
// (scans and hash joins, monitored and not) against ONE engine at once, so
// partitioned workers, monitor shard merges, page reads, and plain serial
// executions all interleave on the shared buffer pool.
func TestParallelStressMixedDegreesOneEngine(t *testing.T) {
	raiseProcs(t, 4)
	eng := joinTestEnv(t, 8000)
	// Warm the cache once; WarmCache below keeps each query from resetting
	// the shared pool under its neighbors.
	if _, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 8000", nil); err != nil {
		t.Fatal(err)
	}

	queries := []struct {
		sql  string
		want int64 // -1: don't check the count
	}{
		{"SELECT COUNT(padding) FROM t WHERE c2 < 6000", 6000},
		{"SELECT COUNT(padding) FROM t WHERE c5 < 4000", 4000},
		{"SELECT COUNT(padding) FROM t, u WHERE u.c1 < 400 AND u.c2 = t.c2", -1},
	}
	degrees := []int{0, 2, 4}

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(w+i)%len(queries)]
				opts := &RunOptions{
					WarmCache:   true,
					Parallelism: degrees[(w+i)%len(degrees)],
					MonitorAll:  (w+i)%2 == 0,
				}
				res, err := eng.Query(q.sql, opts)
				if err != nil {
					errs <- fmt.Errorf("worker %d %q p=%d: %v", w, q.sql, opts.Parallelism, err)
					return
				}
				if q.want >= 0 {
					if got := res.Rows[0][0].Int; got != q.want {
						errs <- fmt.Errorf("worker %d %q p=%d: count = %d, want %d",
							w, q.sql, opts.Parallelism, got, q.want)
						return
					}
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

// TestParallelFeedbackMatchesSerialEngineLevel runs the same monitored
// queries serially and at parallelism 4 through the full engine stack and
// requires identical DPC feedback — the end-to-end version of the exec-level
// partition-invariance property tests. The join must plan as a hash join, so
// that its probe scan runs in the exchange, and the parallel runs must report
// degree 4.
func TestParallelFeedbackMatchesSerialEngineLevel(t *testing.T) {
	raiseProcs(t, 4)
	eng := joinTestEnv(t, 8000)
	const join = "SELECT COUNT(padding) FROM t, u WHERE u.c1 < 400 AND u.c2 = t.c2"
	if m := joinMethodOf(t, eng, join); m != plan.HashJoin {
		t.Fatalf("%q plans %v, want %v", join, m, plan.HashJoin)
	}
	for _, sql := range []string{"SELECT COUNT(padding) FROM t WHERE c5 < 4000", join} {
		run := func(deg int) *Result {
			res, err := eng.Query(sql, &RunOptions{
				MonitorAll: true, SampleFraction: 0.25, WarmCache: true, Parallelism: deg,
			})
			if err != nil {
				t.Fatalf("%q p=%d: %v", sql, deg, err)
			}
			return res
		}
		ser, par := run(0), run(4)
		if got := par.Stats.Runtime.Parallelism; got != 4 {
			t.Errorf("%q: ran at degree %d, want 4", sql, got)
		}
		if !reflect.DeepEqual(ser.DPC, par.DPC) {
			t.Errorf("%q: DPC feedback differs:\n  serial   %+v\n  parallel %+v", sql, ser.DPC, par.DPC)
		}
	}
	assertNoPins(t, eng)
}

// TestParallelQueryLeavesNoReadsRunning checks that a parallel query's page
// reads all belong to it: once QueryContext returns, nothing it started may
// still be reading, so the pool and disk counters read the same right away
// and again a moment later. A read landing after the return would be missing
// from the query's own IO figures and charged to whatever ran next. Half the
// runs are cancelled at their 20th disk read, while the workers still have
// most of their partitions ahead of them.
func TestParallelQueryLeavesNoReadsRunning(t *testing.T) {
	raiseProcs(t, 4)
	eng := joinTestEnv(t, 8000)
	disk := eng.Pool().Disk()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := i%2 == 1
		if cancelled {
			disk.SetReadHook(func(seq int64) {
				if seq == 20 {
					cancel()
				}
			})
		}
		res, err := eng.QueryContext(ctx, "SELECT COUNT(padding) FROM t WHERE c2 < 8000",
			&RunOptions{MonitorAll: true, Parallelism: 4})
		poolAt, diskAt := eng.Pool().Stats(), disk.Stats()
		disk.SetReadHook(nil)
		cancel()
		switch {
		case cancelled && !errors.Is(err, context.Canceled):
			t.Fatalf("run %d: err = %v, want cancellation", i, err)
		case !cancelled && err != nil:
			t.Fatal(err)
		case !cancelled && res.Stats.Runtime.Parallelism != 4:
			t.Fatalf("run %d: query ran at degree %d, want 4", i, res.Stats.Runtime.Parallelism)
		}
		time.Sleep(20 * time.Millisecond)
		if got := eng.Pool().Stats(); got != poolAt {
			t.Errorf("run %d: pool counters moved after the query returned:\n at return %+v\n 20ms later %+v", i, poolAt, got)
		}
		if got := disk.Stats(); got != diskAt {
			t.Errorf("run %d: disk counters moved after the query returned:\n at return %+v\n 20ms later %+v", i, diskAt, got)
		}
	}
	assertNoPins(t, eng)
}
