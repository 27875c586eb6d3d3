package core

import (
	"testing"

	"pagefeedback/internal/expr"
	"pagefeedback/internal/tuple"
)

func caPred() expr.Conjunction {
	return expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA")))
}

func TestCacheStoreLookup(t *testing.T) {
	fc := NewFeedbackCache()
	fc.Store(FeedbackEntry{Table: "sales", Pred: caPred(), Cardinality: 50000, DPC: 1000, Mechanism: "exact-scan", Exact: true})
	e, ok := fc.Lookup("Sales", caPred(), 0) // table name case-insensitive
	if !ok || e.DPC != 1000 || e.Cardinality != 50000 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if fc.Len() != 1 {
		t.Errorf("Len = %d", fc.Len())
	}
	if _, ok := fc.Lookup("other", caPred(), 0); ok {
		t.Error("lookup on wrong table hit")
	}
	// An entry observed at another table version is stale.
	if _, ok := fc.Lookup("sales", caPred(), 1); ok {
		t.Error("lookup at a newer table version hit a stale entry")
	}
}

func TestCacheKeyOrderInsensitive(t *testing.T) {
	a1 := expr.NewAtom("state", expr.Eq, tuple.Str("CA"))
	a2 := expr.NewAtom("shipdate", expr.Eq, tuple.Date(13665))
	fc := NewFeedbackCache()
	fc.Store(FeedbackEntry{Table: "t", Pred: expr.And(a1, a2), DPC: 7})
	if e, ok := fc.Lookup("t", expr.And(a2, a1), 0); !ok || e.DPC != 7 {
		t.Error("reordered predicate missed the cache")
	}
}

func TestCacheExactNotOverwrittenByEstimate(t *testing.T) {
	fc := NewFeedbackCache()
	fc.Store(FeedbackEntry{Table: "t", Pred: caPred(), DPC: 100, Exact: true})
	if kept := fc.Store(FeedbackEntry{Table: "t", Pred: caPred(), DPC: 90, Exact: false}); kept.DPC != 100 || !kept.Exact {
		t.Errorf("Store kept %+v, want the exact entry", kept)
	}
	e, _ := fc.Lookup("t", caPred(), 0)
	if e.DPC != 100 {
		t.Errorf("exact entry overwritten: DPC = %d", e.DPC)
	}
	// But an exact entry replaces an estimate.
	if kept := fc.Store(FeedbackEntry{Table: "t", Pred: caPred(), DPC: 95, Exact: true}); kept.DPC != 95 {
		t.Errorf("Store kept DPC %d, want 95", kept.DPC)
	}
	e, _ = fc.Lookup("t", caPred(), 0)
	if e.DPC != 95 {
		t.Errorf("exact update ignored: DPC = %d", e.DPC)
	}
	// An exact count of an older table version describes data that is
	// gone: an estimate of the new version replaces it, and stays fresh.
	if kept := fc.Store(FeedbackEntry{Table: "t", Pred: caPred(), DPC: 120, TableVersion: 1}); kept.DPC != 120 {
		t.Errorf("estimate of a newer version lost to a stale exact entry: kept DPC %d", kept.DPC)
	}
	if e, ok := fc.Lookup("t", caPred(), 1); !ok || e.DPC != 120 || e.Exact {
		t.Errorf("Lookup at version 1 = %+v, %v; want the version-1 estimate", e, ok)
	}
	// Within that version the rule holds again: exact beats estimate.
	fc.Store(FeedbackEntry{Table: "t", Pred: caPred(), DPC: 110, Exact: true, TableVersion: 1})
	fc.Store(FeedbackEntry{Table: "t", Pred: caPred(), DPC: 130, TableVersion: 1})
	if e, _ := fc.Lookup("t", caPred(), 1); e.DPC != 110 {
		t.Errorf("same-version estimate replaced the exact entry: DPC = %d", e.DPC)
	}
}

func TestCacheEntriesSorted(t *testing.T) {
	fc := NewFeedbackCache()
	fc.Store(FeedbackEntry{Table: "b", Pred: caPred(), DPC: 1})
	fc.Store(FeedbackEntry{Table: "a", Pred: caPred(), DPC: 2})
	es := fc.Entries()
	if len(es) != 2 || es[0].Table != "a" || es[1].Table != "b" {
		t.Errorf("Entries = %+v", es)
	}
	if es[0].Pred.String() != caPred().String() {
		t.Errorf("Pred = %s, want %s", es[0].Pred, caPred())
	}
}
