package opt

import (
	"math"
	"testing"

	"pagefeedback/internal/expr"
	"pagefeedback/internal/tuple"
)

func TestPredValueRange(t *testing.T) {
	cases := []struct {
		pred   expr.Conjunction
		col    string
		lo, hi int64
		ok     bool
	}{
		{expr.And(expr.NewAtom("c", expr.Lt, tuple.Int64(10))), "c", math.MinInt64, 9, true},
		{expr.And(expr.NewBetween("c", tuple.Int64(3), tuple.Int64(8))), "c", 3, 8, true},
		{expr.And( // two atoms same column: intersect
			expr.NewAtom("c", expr.Ge, tuple.Int64(5)),
			expr.NewAtom("c", expr.Le, tuple.Int64(20)),
		), "c", 5, 20, true},
		{expr.And( // two columns: not extractable
			expr.NewAtom("a", expr.Lt, tuple.Int64(10)),
			expr.NewAtom("b", expr.Lt, tuple.Int64(10)),
		), "", 0, 0, false},
		{expr.And(expr.NewAtom("c", expr.Ne, tuple.Int64(5))), "", 0, 0, false},
		{expr.Conjunction{}, "", 0, 0, false},
		{expr.And( // contradictory range
			expr.NewAtom("c", expr.Gt, tuple.Int64(10)),
			expr.NewAtom("c", expr.Lt, tuple.Int64(5)),
		), "", 0, 0, false},
	}
	for _, c := range cases {
		col, lo, hi, ok := predValueRange(c.pred)
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v", c.pred, ok, c.ok)
			continue
		}
		if ok && (col != c.col || lo != c.lo || hi != c.hi) {
			t.Errorf("%s: got (%s,%d,%d), want (%s,%d,%d)", c.pred, col, lo, hi, c.col, c.lo, c.hi)
		}
	}
}

func TestRecordDPCObservationClipsToColumnDomain(t *testing.T) {
	e := newOptEnv(t)
	// An open-ended "< 500" observation gets clipped to [0, optRows-1].
	e.opt.RecordDPCObservation("t", "c2", math.MinInt64, 499, 500, 7)
	h, ok := e.opt.DPCHistogram("t", "c2")
	if !ok {
		t.Fatal("histogram missing")
	}
	obs := h.Observations()
	if len(obs) != 1 || obs[0].Lo != 0 || obs[0].Hi != 499 {
		t.Errorf("observation = %+v, want clipped to [0,499]", obs)
	}
}

func TestHistogramInfluencesEstimateDPC(t *testing.T) {
	e := newOptEnv(t)
	pred := expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(1000)))
	before, err := e.opt.EstimateDPC("t", pred)
	if err != nil {
		t.Fatal(err)
	}
	// Teach the optimizer that c2 is perfectly clustered.
	e.opt.RecordDPCObservation("t", "c2", 0, 499, 500, 7)
	after, err := e.opt.EstimateDPC("t", pred)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("histogram did not lower the estimate: %.0f -> %.0f", before, after)
	}
	ts, _ := e.opt.TableStats("t")
	if after > 1000/ts.RowsPerPage*3 {
		t.Errorf("estimate %.0f far above the learned density", after)
	}
	// Exact injection still wins over the histogram.
	e.opt.InjectDPC("t", pred, 42)
	v, _ := e.opt.EstimateDPC("t", pred)
	if v != 42 {
		t.Errorf("injection did not override histogram: %v", v)
	}
	// Clearing histograms reverts.
	e.opt.ClearInjections()
	e.opt.ClearDPCHistograms()
	v, _ = e.opt.EstimateDPC("t", pred)
	if math.Abs(v-before) > 1 {
		t.Errorf("after clearing, estimate %.0f != analytical %.0f", v, before)
	}
}

func TestEstimateErrorsOnUnanalyzed(t *testing.T) {
	e := newOptEnv(t)
	pred := expr.And(expr.NewAtom("x", expr.Lt, tuple.Int64(1)))
	if _, err := e.opt.EstimateDPC("ghost", pred); err == nil {
		t.Error("EstimateDPC on unanalyzed table succeeded")
	}
	if _, err := e.opt.EstimateCardinality("ghost", pred); err == nil {
		t.Error("EstimateCardinality on unanalyzed table succeeded")
	}
	if _, err := e.opt.EstimateINLDPC("ghost", "x", 10); err == nil {
		t.Error("EstimateINLDPC on unanalyzed table succeeded")
	}
}

func TestEstimateINLDPCInjection(t *testing.T) {
	e := newOptEnv(t)
	analytical, err := e.opt.EstimateINLDPC("t", "c2", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if analytical <= 0 {
		t.Errorf("analytical INL DPC = %v", analytical)
	}
	recordJoinDPCAt(t, e.opt, "t", "c2", 1000, 13)
	v, _ := e.opt.EstimateINLDPC("t", "c2", 1000)
	if v != 13 {
		t.Errorf("INL DPC from a one-point curve at its own point = %v, want 13", v)
	}
}

func TestClusteredRangeScanChosenForClusterKeyPredicate(t *testing.T) {
	e := newOptEnv(t)
	pred := expr.And(expr.NewAtom("c1", expr.Lt, tuple.Int64(optRows/100)))
	q := &Query{Table: "t", Pred: pred, Agg: 0, AggCol: "pad"}
	node, err := e.opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	access := accessOf(t, node)
	if got := access.Label(); got != "ClusteredIndexRangeScan(t: c1 < 500)" {
		t.Errorf("access = %q, want a ClusteredIndexRangeScan", got)
	}
}
