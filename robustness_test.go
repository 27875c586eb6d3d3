package pagefeedback

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pagefeedback/internal/storage"
)

// assertQueryErrorKind checks err is a *QueryError of the given kind.
func assertQueryErrorKind(t *testing.T, err error, kind ErrorKind) {
	t.Helper()
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("error %v (%T) is not a *QueryError", err, err)
	}
	if qe.Kind != kind {
		t.Errorf("QueryError kind = %s, want %s: %v", qe.Kind, kind, err)
	}
}

// assertNoPins checks the buffer pool is fully unpinned.
func assertNoPins(t *testing.T, eng *Engine) {
	t.Helper()
	if n := eng.Pool().Pinned(); n != 0 {
		t.Errorf("%d buffer-pool frames still pinned", n)
	}
}

// assertRecovered runs a control query and checks the engine still answers
// correctly after whatever fault the caller injected and cleared.
func assertRecovered(t *testing.T, eng *Engine, sql string, want int64) {
	t.Helper()
	res, err := eng.Query(sql, nil)
	if err != nil {
		t.Fatalf("post-fault query failed: %v", err)
	}
	if got := res.Rows[0][0].Int; got != want {
		t.Errorf("post-fault count = %d, want %d", got, want)
	}
}

// tornPageEnv builds a heap table h (file 0, so CorruptPage can address it)
// plus an intact clustered table v, flushes everything to "disk", and tears
// several of h's data pages.
func tornPageEnv(t *testing.T) *Engine {
	t.Helper()
	eng := New(DefaultConfig())
	h := NewSchema(
		Column{Name: "k", Kind: KindInt},
		Column{Name: "pad", Kind: KindString},
	)
	if _, err := eng.CreateHeapTable("h", h); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 2000)
	for i := range rows {
		rows[i] = Row{Int64(int64(i)), Str(strings.Repeat("p", 60))}
	}
	if err := eng.Load("h", rows); err != nil {
		t.Fatal(err)
	}
	v := NewSchema(
		Column{Name: "k", Kind: KindInt},
		Column{Name: "val", Kind: KindInt},
	)
	if _, err := eng.CreateClusteredTable("v", v, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	vrows := make([]Row, 4000)
	for i := range vrows {
		vrows[i] = Row{Int64(int64(i)), Int64(int64(i))}
	}
	if err := eng.Load("v", vrows); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("h", "v"); err != nil {
		t.Fatal(err)
	}
	// Flush so the pool holds no clean copy that could mask the torn bytes,
	// then tear pages mid-file (a full scan of h is certain to read them).
	if err := eng.Pool().Reset(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range []storage.PageID{2, 3, 4} {
		if err := eng.Pool().Disk().CorruptPage(0, pid); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestFaultMatrix drives one fault of each class through a full query and
// asserts the common contract: a typed error (or success where the fault is
// recoverable), no panic, no leaked pins, and a correct follow-up query.
func TestFaultMatrix(t *testing.T) {
	t.Run("torn page", func(t *testing.T) {
		eng := tornPageEnv(t)
		_, err := eng.Query("SELECT COUNT(pad) FROM h", nil)
		if err == nil {
			t.Fatal("scan over torn pages succeeded")
		}
		if !errors.Is(err, storage.ErrChecksum) {
			t.Errorf("error does not wrap ErrChecksum: %v", err)
		}
		assertQueryErrorKind(t, err, ErrKindStorage)
		assertNoPins(t, eng)
		if eng.Pool().Disk().Stats().ChecksumErrors == 0 {
			t.Error("ChecksumErrors stat not incremented")
		}
		assertRecovered(t, eng, "SELECT COUNT(*) FROM v WHERE k < 10", 10)
	})

	t.Run("transient fault recovered by retry", func(t *testing.T) {
		eng := buildTestDB(t, 8000)
		before := eng.Pool().Disk().Stats()
		eng.Pool().Disk().InjectTransientFaults(2)
		res, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 500", nil)
		if err != nil {
			t.Fatalf("query under recoverable transient faults failed: %v", err)
		}
		if res.Rows[0][0].Int != 500 {
			t.Errorf("count = %d under transient faults", res.Rows[0][0].Int)
		}
		if got := eng.Pool().Disk().Stats().Sub(before).ReadRetries; got != 2 {
			t.Errorf("ReadRetries = %d, want 2", got)
		}
		assertNoPins(t, eng)
	})

	t.Run("transient burst exceeds retry budget", func(t *testing.T) {
		eng := buildTestDB(t, 8000)
		// More consecutive faulted attempts than one read's retry budget.
		eng.Pool().Disk().InjectTransientFaults(10)
		_, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 500", nil)
		if err == nil {
			t.Fatal("query under transient burst succeeded")
		}
		if !errors.Is(err, storage.ErrTransientFault) {
			t.Errorf("error does not wrap ErrTransientFault: %v", err)
		}
		assertQueryErrorKind(t, err, ErrKindStorage)
		assertNoPins(t, eng)
		eng.Pool().Disk().InjectTransientFaults(0)
		assertRecovered(t, eng, "SELECT COUNT(padding) FROM t WHERE c2 < 500", 500)
	})

	t.Run("hard read fault", func(t *testing.T) {
		eng := buildTestDB(t, 8000)
		eng.Pool().Disk().FailReadsAfter(5)
		_, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 500", nil)
		if err == nil {
			t.Fatal("query under hard read faults succeeded")
		}
		if !errors.Is(err, storage.ErrInjectedFault) {
			t.Errorf("error does not wrap ErrInjectedFault: %v", err)
		}
		assertQueryErrorKind(t, err, ErrKindStorage)
		assertNoPins(t, eng)
		eng.Pool().Disk().FailReadsAfter(-1)
		assertRecovered(t, eng, "SELECT COUNT(padding) FROM t WHERE c2 < 500", 500)
	})

	t.Run("write fault during cold-cache flush", func(t *testing.T) {
		eng := buildTestDB(t, 8000)
		// Dirty one page so the cold-cache Reset must write it back.
		pp, err := eng.Pool().FetchPage(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(true)
		eng.Pool().Disk().FailWritesAfter(0)
		_, err = eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 500", nil)
		if err == nil {
			t.Fatal("query with failing writeback succeeded")
		}
		if !errors.Is(err, storage.ErrInjectedWriteFault) {
			t.Errorf("error does not wrap ErrInjectedWriteFault: %v", err)
		}
		assertQueryErrorKind(t, err, ErrKindStorage)
		assertNoPins(t, eng)
		eng.Pool().Disk().FailWritesAfter(-1)
		assertRecovered(t, eng, "SELECT COUNT(padding) FROM t WHERE c2 < 500", 500)
	})

	t.Run("cancelled context", func(t *testing.T) {
		eng := buildTestDB(t, 8000)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := eng.QueryContext(ctx, "SELECT COUNT(padding) FROM t WHERE c2 < 500", nil)
		if err == nil {
			t.Fatal("query under cancelled context succeeded")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error does not wrap context.Canceled: %v", err)
		}
		assertQueryErrorKind(t, err, ErrKindCancelled)
		assertNoPins(t, eng)
		assertRecovered(t, eng, "SELECT COUNT(padding) FROM t WHERE c2 < 500", 500)
	})

	t.Run("query timeout", func(t *testing.T) {
		eng := buildTestDB(t, 8000)
		_, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 2000",
			&RunOptions{Timeout: time.Nanosecond})
		if err == nil {
			t.Fatal("query with 1ns timeout succeeded")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("error does not wrap DeadlineExceeded: %v", err)
		}
		assertQueryErrorKind(t, err, ErrKindTimeout)
		assertNoPins(t, eng)
		assertRecovered(t, eng, "SELECT COUNT(padding) FROM t WHERE c2 < 500", 500)
	})

	t.Run("injected monitor panic", func(t *testing.T) {
		eng := joinTestEnv(t, 8000)
		sql := "SELECT COUNT(padding) FROM t, u WHERE u.c1 < 100 AND u.c2 = t.c2"
		healthy, err := eng.Query(sql, &RunOptions{MonitorAll: true, SampleFraction: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(sql, &RunOptions{
			MonitorAll: true, SampleFraction: 1.0,
			failMonitors: []string{MechExactScan, MechDPSample, MechLinearCount, MechBitVector, MechINLFetch},
		})
		if err != nil {
			t.Fatalf("query with all monitors failing errored: %v", err)
		}
		if res.Rows[0][0].Int != healthy.Rows[0][0].Int {
			t.Errorf("count with quarantined monitors = %d, want %d",
				res.Rows[0][0].Int, healthy.Rows[0][0].Int)
		}
		if res.Stats.Runtime.QuarantinedMonitors == 0 {
			t.Error("no monitor recorded as quarantined")
		}
		// With every monitor quarantined, feedback application is a no-op:
		// degraded observations never reach the cache, a join curve or the
		// optimizer's injections.
		eng.ApplyFeedback(res)
		if n := len(eng.FeedbackCache().Entries()); n != 0 {
			t.Errorf("%d feedback entries stored from fully-degraded run", n)
		}
		for _, tab := range []string{"t", "u"} {
			if _, ok := eng.Optimizer().JoinDPCCurve(tab, "c2"); ok {
				t.Errorf("quarantined join result grew the %s.c2 join curve", tab)
			}
		}
		for _, r := range res.DPC {
			if !r.Request.Join && eng.Optimizer().HasInjectedDPC(r.Request.Table, r.Request.Pred) {
				t.Errorf("quarantined %s result for %s was injected", r.Mechanism, r.Request.Pred)
			}
		}
		assertNoPins(t, eng)
		assertRecovered(t, eng, "SELECT COUNT(padding) FROM t WHERE c2 < 500", 500)
	})
}

// TestMonitorQuarantinePerMechanism runs, for every monitoring mechanism a
// query exercises, a healthy execution and one with that mechanism's
// monitors panicking — and diffs them: identical rows, the failed monitor
// reported Degraded with no observation, the other monitors unaffected.
// Every case runs serially and at degree 2. Each query case gets a fresh
// engine so plan choices stay identical between the healthy and the failing
// run.
func TestMonitorQuarantinePerMechanism(t *testing.T) {
	seekSQL := "SELECT COUNT(padding) FROM t WHERE c2 < 500"
	cases := []struct {
		name string
		sql  string
		// forceSeek injects a tiny DPC so the optimizer picks an index plan
		// (linear counting engages only on fetch paths).
		forceSeek bool
	}{
		{name: "scan", sql: "SELECT COUNT(padding) FROM t WHERE c5 < 2000 AND c2 < 6000"},
		{name: "seek", sql: seekSQL, forceSeek: true},
		{name: "join", sql: "SELECT COUNT(padding) FROM t, u WHERE u.c1 < 100 AND u.c2 = t.c2"},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := joinTestEnv(t, 8000)
			if tc.forceSeek {
				pq, err := eng.ParseQuery(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				eng.Optimizer().InjectDPC("t", pq.Pred, 1)
			}
			for _, par := range []int{0, 2} {
				opts := func(fail ...string) *RunOptions {
					return &RunOptions{MonitorAll: true, SampleFraction: 1.0,
						Parallelism: par, failMonitors: fail}
				}
				healthy, err := eng.Query(tc.sql, opts())
				if err != nil {
					t.Fatal(err)
				}
				mechs := map[string]bool{}
				for _, r := range healthy.DPC {
					if r.Mechanism != MechUnsatisfiable {
						mechs[r.Mechanism] = true
					}
				}
				for mech := range mechs {
					covered[mech] = true
					checkQuarantine(t, fmt.Sprintf("degree %d, %s failing", par, mech),
						mech, healthy, eng, tc.sql, opts(mech))
				}
			}
		})
	}
	for _, want := range []string{MechExactScan, MechDPSample, MechLinearCount, MechBitVector} {
		if !covered[want] {
			t.Errorf("mechanism %s never exercised by the quarantine matrix", want)
		}
	}
}

// checkQuarantine runs sql with mech's monitors failing and diffs it against
// the healthy run: same rows; mech's monitors quarantined (Degraded, no
// observation, the panic as reason, counted in QuarantinedMonitors); every
// other result degraded exactly as before.
func checkQuarantine(t *testing.T, name, mech string, healthy *Result, eng *Engine, sql string, opts *RunOptions) {
	t.Helper()
	res, err := eng.Query(sql, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Rows[0][0].Int != healthy.Rows[0][0].Int {
		t.Errorf("%s: count %d, want %d", name, res.Rows[0][0].Int, healthy.Rows[0][0].Int)
	}
	if len(res.DPC) != len(healthy.DPC) {
		t.Fatalf("%s: %d DPC results, healthy run had %d", name, len(res.DPC), len(healthy.DPC))
	}
	quarantined := 0
	for i, r := range res.DPC {
		if r.Mechanism != mech {
			if h := healthy.DPC[i]; r.Degraded != h.Degraded {
				t.Errorf("%s: %s result changed: degraded=%v, healthy degraded=%v",
					name, r.Mechanism, r.Degraded, h.Degraded)
			}
			continue
		}
		quarantined++
		if !r.Degraded || !strings.HasPrefix(r.Reason, "monitor quarantined:") {
			t.Errorf("%s: degraded=%v reason=%q; want a quarantine", name, r.Degraded, r.Reason)
		}
		if r.DPC != 0 {
			t.Errorf("%s: quarantined result carries DPC %d", name, r.DPC)
		}
	}
	if quarantined == 0 {
		t.Errorf("%s: no quarantined result", name)
	}
	if rt := res.Stats.Runtime; rt.QuarantinedMonitors != quarantined {
		t.Errorf("%s: QuarantinedMonitors = %d; results show %d", name, rt.QuarantinedMonitors, quarantined)
	}
	for _, x := range res.Stats.DPC {
		if x.Mechanism == mech && !x.Degraded {
			t.Errorf("%s: statistics-xml entry not marked degraded", name)
		}
	}
}

// TestBufferPoolExhaustion pins every frame of a minimum-size pool and
// checks a query fails with the typed exhaustion error — and that the
// engine recovers completely once the pins are released.
func TestBufferPoolExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolPages = 64
	cfg.PoolWaitBudget = 0 // fail-fast: this test pins frames and never releases mid-query
	eng := New(cfg)
	h := NewSchema(
		Column{Name: "k", Kind: KindInt},
		Column{Name: "pad", Kind: KindString},
	)
	if _, err := eng.CreateHeapTable("h", h); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 10000) // ~100 data pages, well past pool capacity
	for i := range rows {
		rows[i] = Row{Int64(int64(i)), Str(strings.Repeat("x", 60))}
	}
	if err := eng.Load("h", rows); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("h"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Pool().Reset(); err != nil {
		t.Fatal(err)
	}

	// Pin every page the pool will admit. The pool is sharded, so a shard can
	// fill before the global capacity is reached; pages whose shard is already
	// full of pins are skipped, leaving those shards exhausted for the scan.
	var pins []*storage.PinnedPage
	npages := eng.Pool().Disk().NumPages(0)
	for pid := storage.PageID(0); pid < storage.PageID(npages); pid++ {
		pp, err := eng.Pool().FetchPage(0, pid)
		if err != nil {
			if errors.Is(err, storage.ErrPoolExhausted) {
				continue
			}
			t.Fatal(err)
		}
		pins = append(pins, pp)
	}
	if len(pins) == 0 || len(pins) >= npages {
		t.Fatalf("pinned %d of %d pages; expected partial exhaustion", len(pins), npages)
	}
	// WarmCache: a cold-cache reset cannot run with frames pinned; the scan
	// itself must hit the exhausted pool when it needs a 65th frame.
	_, err := eng.Query("SELECT COUNT(pad) FROM h", &RunOptions{WarmCache: true})
	if err == nil {
		t.Fatal("query over exhausted pool succeeded")
	}
	if !errors.Is(err, storage.ErrPoolExhausted) {
		t.Errorf("error does not wrap ErrPoolExhausted: %v", err)
	}
	assertQueryErrorKind(t, err, ErrKindStorage)

	for _, pp := range pins {
		pp.Unpin(false)
	}
	assertNoPins(t, eng)
	assertRecovered(t, eng, "SELECT COUNT(pad) FROM h", 10000)
}
