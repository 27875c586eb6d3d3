package pagefeedback

import (
	"strings"
	"testing"
)

// TestFeedbackInvalidatedByDataChange: page counts observed against old
// data must not influence plans after the table changes — stale feedback
// carries false confidence.
func TestFeedbackInvalidatedByDataChange(t *testing.T) {
	eng := New(DefaultConfig())
	schema := NewSchema(
		Column{Name: "k", Kind: KindInt},
		Column{Name: "pad", Kind: KindString},
	)
	if _, err := eng.CreateHeapTable("h", schema); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("s", 60)
	mkRows := func(n, base int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Int64(int64(base + i)), Str(pad)}
		}
		return rows
	}
	if err := eng.Load("h", mkRows(20000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateIndex("ix_k", "h", "k"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("h"); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT COUNT(pad) FROM h WHERE k < 300"
	res, err := eng.Query(q, &RunOptions{MonitorAll: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.ApplyFeedback(res)
	if eng.FeedbackCache().Len() == 0 {
		t.Fatal("no feedback stored")
	}
	pq, _ := eng.ParseQuery(q)
	eng.Optimizer().ClearInjections()
	if n := eng.InjectFromCache(pq); n == 0 {
		t.Fatal("cache injection failed pre-mutation")
	}
	eng.Optimizer().ClearInjections()

	// Append more data: every learned statistic for h must be dropped.
	if err := eng.Load("h", mkRows(20000, 20000)); err != nil {
		t.Fatal(err)
	}
	if eng.FeedbackCache().Len() != 0 {
		t.Errorf("cache still holds %d entries after reload", eng.FeedbackCache().Len())
	}
	if n := eng.InjectFromCache(pq); n != 0 {
		t.Errorf("InjectFromCache injected %d stale entries", n)
	}
	if _, ok := eng.Optimizer().DPCHistogram("h", "k"); ok {
		t.Error("stale histogram survived the reload")
	}
	out, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "analytical (Yao)") {
		t.Errorf("explain after reload should be analytical:\n%s", out)
	}
}

// TestStaleCacheEntryVersionCheck: even when an entry survives in the
// cache (the table was mutated through the catalog directly, without
// InvalidateFeedback), a table-version mismatch stops InjectFromCache from
// using it.
func TestStaleCacheEntryVersionCheck(t *testing.T) {
	eng := buildTestDB(t, 10000)
	const q = "SELECT COUNT(padding) FROM t WHERE c2 < 100"
	res, err := eng.Query(q, &RunOptions{MonitorAll: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.ApplyFeedback(res)
	eng.Optimizer().ClearInjections()

	// Bump the table version behind the cache's back (as direct catalog
	// mutation would).
	tab, _ := eng.Catalog().Table("t")
	if _, err := tab.Insert(Row{Int64(1 << 40), Int64(1 << 40), Int64(1 << 40), Str("x")}); err != nil {
		t.Fatal(err)
	}
	pq, _ := eng.ParseQuery(q)
	if n := eng.InjectFromCache(pq); n != 0 {
		t.Errorf("version-mismatched entry injected (%d)", n)
	}
}
