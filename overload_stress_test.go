package pagefeedback

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pagefeedback/internal/plan"
)

// overloadTestDB is buildTestDB with admission control switched on.
func overloadTestDB(t *testing.T, n, maxConcurrent int) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxConcurrent = maxConcurrent
	return overloadTestDBWith(t, cfg, n)
}

func overloadTestDBWith(t *testing.T, cfg Config, n int) *Engine {
	t.Helper()
	eng := New(cfg)
	schema := NewSchema(
		Column{Name: "c1", Kind: KindInt},
		Column{Name: "c2", Kind: KindInt},
		Column{Name: "c5", Kind: KindInt},
		Column{Name: "padding", Kind: KindString},
	)
	if _, err := eng.CreateClusteredTable("t", schema, []string{"c1"}); err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(21)).Perm(n)
	pad := strings.Repeat("z", 60)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int64(int64(i)), Int64(int64(i)), Int64(int64(perm[i])), Str(pad)}
	}
	if err := eng.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"c2", "c5"} {
		if _, err := eng.CreateIndex("ix_"+c, "t", c); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestOverloadStressBoundedConcurrency floods a MaxConcurrent=8 engine with
// 64 simultaneous monitored queries, all queued behind held slots. With no
// queue bound and no deadlines there must be zero spurious failures: every
// query eventually runs, its rows and its DPC feedback byte-identical to a
// serial run, with its queue wait recorded and the gate's books balanced
// afterward.
func TestOverloadStressBoundedConcurrency(t *testing.T) {
	raiseProcs(t, 8)
	const limit = 8
	eng := overloadTestDB(t, 8000, limit)
	const sql = "SELECT COUNT(padding) FROM t WHERE c2 < 3000"
	opts := func() *RunOptions {
		// WarmCache: concurrent cold resets would fight over each other's
		// pinned pages; overload mode is a warm-pool regime by construction.
		return &RunOptions{MonitorAll: true, SampleFraction: 1.0, WarmCache: true}
	}
	serial, err := eng.Query(sql, opts())
	if err != nil {
		t.Fatal(err)
	}
	if serial.Rows[0][0].Int != 3000 {
		t.Fatalf("serial count = %d", serial.Rows[0][0].Int)
	}

	// Hold every slot until all the queries have queued behind them: a query
	// takes well under a scheduler slice, so left to themselves the
	// goroutines could run one after another and never fill the gate.
	for i := 0; i < limit; i++ {
		if _, _, err := eng.gate.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	base := eng.AdmissionStats()

	const queries = 64
	var wg sync.WaitGroup
	results := make([]*Result, queries)
	errs := make([]error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Query(sql, opts())
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.AdmissionStats().Queued < queries {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d queries queued behind the held slots", eng.AdmissionStats().Queued, queries)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < limit; i++ {
		eng.gate.release()
	}
	wg.Wait()

	queued := 0
	for i := 0; i < queries; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d failed under overload: %v", i, errs[i])
		}
		res := results[i]
		if res.Rows[0][0].Int != 3000 {
			t.Errorf("query %d: count = %d", i, res.Rows[0][0].Int)
		}
		if !reflect.DeepEqual(res.DPC, serial.DPC) {
			t.Errorf("query %d: DPC feedback differs from serial run", i)
		}
		if res.Stats.Runtime.QueueWait > 0 {
			queued++
		}
		if res.Stats.Runtime.QueueWait > time.Minute {
			t.Errorf("query %d: unbounded queue wait %v", i, res.Stats.Runtime.QueueWait)
		}
	}
	if queued != queries {
		t.Errorf("%d of %d queries recorded a queue wait; every one queued", queued, queries)
	}

	st := eng.AdmissionStats()
	if st.Limit != limit {
		t.Errorf("Limit = %d, want %d", st.Limit, limit)
	}
	if st.Active != 0 || st.Queued != 0 {
		t.Errorf("gate not drained: %+v", st)
	}
	if got := st.Admitted - base.Admitted; got != queries {
		t.Errorf("Admitted grew by %d, want %d", got, queries)
	}
	if st.Rejected != base.Rejected || st.TimedOut != base.TimedOut {
		t.Errorf("spurious rejections/timeouts: %+v", st)
	}
	if st.PeakQueued != queries {
		t.Errorf("PeakQueued = %d, want all %d queries", st.PeakQueued, queries)
	}
	if st.WaitTime <= 0 {
		t.Error("no cumulative queue wait recorded")
	}
}

// TestOverloadQueueDeadline: a queued query whose deadline expires before a
// slot frees up must fail with ErrKindOverload, quickly, without disturbing
// the queries that hold the slots.
func TestOverloadQueueDeadline(t *testing.T) {
	eng := overloadTestDB(t, 4000, 1)

	// Occupy the single slot with a slow query (parallel scan of everything).
	release := make(chan struct{})
	hold := make(chan struct{})
	go func() {
		defer close(release)
		// Hold the slot by acquiring it directly; a real query would do the
		// same but without a controllable duration.
		if _, _, err := eng.gate.acquire(context.Background()); err != nil {
			t.Error(err)
			return
		}
		close(hold)
		time.Sleep(50 * time.Millisecond)
		eng.gate.release()
	}()
	<-hold

	start := time.Now()
	_, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 100",
		&RunOptions{WarmCache: true, Timeout: 5 * time.Millisecond})
	waited := time.Since(start)
	qe := asQueryError(t, err)
	if qe.Kind != ErrKindOverload {
		t.Fatalf("kind = %q (%v), want overload", qe.Kind, err)
	}
	if waited > time.Second {
		t.Errorf("queued query took %v to give up on a 5ms deadline", waited)
	}
	<-release

	// The slot is free again: the same query must now succeed.
	if _, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 100",
		&RunOptions{WarmCache: true}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestOverloadQueueFullRejection: with a bounded queue, arrivals beyond the
// bound are rejected immediately with ErrKindOverload.
func TestOverloadQueueFullRejection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueueDepth = 1
	eng := overloadTestDBWith(t, cfg, 500)

	if _, _, err := eng.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _, err := eng.gate.acquire(ctx)
		queuedErr <- err
		if err == nil {
			eng.gate.release()
		}
	}()
	waitForQueued(t, eng)

	// Queue holds its one waiter; the next arrival must bounce.
	_, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 10",
		&RunOptions{WarmCache: true})
	qe := asQueryError(t, err)
	if qe.Kind != ErrKindOverload {
		t.Fatalf("kind = %q (%v), want overload (queue full)", qe.Kind, err)
	}
	st := eng.AdmissionStats()
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	// Release the held slot: the legitimate waiter must get it, undisturbed
	// by the rejection that happened behind it.
	eng.gate.release()
	if err := <-queuedErr; err != nil {
		t.Errorf("legitimate waiter was disturbed: %v", err)
	}
}

// TestOverloadMemBudget: the per-query memory budget aborts a hash-heavy
// query with ErrKindMemory while a budgeted-but-sufficient run succeeds and
// reports its peak.
func TestOverloadMemBudget(t *testing.T) {
	eng := overloadTestDB(t, 8000, 0)
	const sql = "SELECT c2, COUNT(*) FROM t WHERE c1 < 4000 GROUP BY c2"

	_, err := eng.Query(sql, &RunOptions{MemBudget: 4 << 10})
	qe := asQueryError(t, err)
	if qe.Kind != ErrKindMemory {
		t.Fatalf("kind = %q (%v), want memory", qe.Kind, err)
	}

	res, err := eng.Query(sql, &RunOptions{MemBudget: 64 << 20})
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	peak := res.Stats.Runtime.MemPeakBytes
	if peak <= 0 || peak > 64<<20 {
		t.Errorf("MemPeakBytes = %d", peak)
	}
	if n := eng.Pool().Pinned(); n != 0 {
		t.Errorf("%d pins leaked after memory abort", n)
	}
}

// TestHashJoinProbeBitsMemBudget: a hash join charges its probe's bit vector
// after its build table, so a budget that holds the build but not the vector
// aborts the query with ErrKindMemory, and no page stays pinned. No probe key
// matches, so the peak is the build plus the vector: 300 distinct build keys
// take a 4,096-bit (512-byte) vector. The plan's root is the join, so the
// build keeps both of u's columns: 2 × 32 B of values and a 48 B map entry
// per row.
func TestHashJoinProbeBitsMemBudget(t *testing.T) {
	const vecBytes = 4096 / 8
	const buildBytes = 300 * (2*32 + 48)
	eng := New(DefaultConfig())
	u, err := eng.CreateHeapTable("u", NewSchema(Column{Name: "oid", Kind: KindInt}, Column{Name: "k", Kind: KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.CreateClusteredTable("p", NewSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "k", Kind: KindInt}), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	var urows, prows []Row
	for j := int64(0); j < 300; j++ {
		urows = append(urows, Row{Int64(j), Int64(3 * j)})
	}
	for i := int64(0); i < 3000; i++ {
		prows = append(prows, Row{Int64(i), Int64(3*i + 1)})
	}
	if err := eng.Load("u", urows); err != nil {
		t.Fatal(err)
	}
	if err := eng.Load("p", prows); err != nil {
		t.Fatal(err)
	}
	node := &plan.Join{
		Method: plan.HashJoin, Outer: &plan.Scan{Tab: u}, Inner: &plan.Scan{Tab: p},
		OuterCol: "k", InnerCol: "k", Schem: plan.JoinSchema(u.Name, u.Schema, p.Name, p.Schema),
	}
	res, err := eng.Execute(node, nil, &RunOptions{MemBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	peak := res.Stats.Runtime.MemPeakBytes
	if len(res.Rows) != 0 || peak != buildBytes+vecBytes {
		t.Fatalf("%d rows, MemPeakBytes %d; want no rows and the build's %d bytes plus the vector's %d", len(res.Rows), peak, buildBytes, vecBytes)
	}
	for _, budget := range []int64{peak - vecBytes, peak - vecBytes/2, peak - 1} {
		_, err := eng.Execute(node, nil, &RunOptions{MemBudget: budget})
		if qe := asQueryError(t, err); qe.Kind != ErrKindMemory {
			t.Errorf("budget %d (peak %d): kind = %q (%v), want memory", budget, peak, qe.Kind, err)
		}
		if n := eng.Pool().Pinned(); n != 0 {
			t.Errorf("budget %d: %d pins leaked after memory abort", budget, n)
		}
	}
	if _, err := eng.Execute(node, nil, &RunOptions{MemBudget: peak}); err != nil {
		t.Errorf("budget at the peak %d: %v", peak, err)
	}
}

func asQueryError(t *testing.T, err error) *QueryError {
	t.Helper()
	if err == nil {
		t.Fatal("query succeeded, expected a typed failure")
	}
	qe, ok := err.(*QueryError)
	if !ok {
		t.Fatalf("error is %T (%v), want *QueryError", err, err)
	}
	return qe
}

// waitForQueued polls until the engine's gate reports one queued waiter.
func waitForQueued(t *testing.T, eng *Engine) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for eng.AdmissionStats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
}
