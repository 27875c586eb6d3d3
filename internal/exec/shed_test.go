package exec

import (
	"strings"
	"testing"

	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/tuple"
)

// shedState is what one DPC request got at one shed level: the mechanism,
// the sampling fraction or bitmap size the planted monitor runs with (0
// when it has none), and whether the result is a shed one.
type shedState struct {
	mech    string
	frac    float64
	bits    uint64
	shed    bool
	planted bool
}

// TestShedLevelsWalkDownTheLattice runs shed levels 0-3 against each kind
// of monitor — a prefix scan monitor, a non-prefix scan monitor, a seek
// monitor and a join bit-vector monitor — and checks the mechanism and the
// thinning that the RunOptions.ShedLevel doc states. Shedding only moves
// down the lattice: every monitor a level degrades reports Shed and
// Degraded (so ApplyFeedback skips it), a monitor a level leaves unchanged
// reports neither, and the query's answer never changes.
func TestShedLevelsWalkDownTheLattice(t *testing.T) {
	e := newEnv(t)
	const f, bits = 0.5, 1 << 14

	prefix := expr.And(expr.NewAtom("state", expr.Eq, tuple.Str("CA")))
	nonPrefix := expr.And(expr.NewAtom("c5", expr.Lt, tuple.Int64(2000)))
	scanNode := &plan.Scan{Tab: e.sales, Pred: mustBind(t,
		expr.And(prefix.Atoms[0], expr.NewAtom("c2", expr.Lt, tuple.Int64(2400))), e.sales.Schema)}

	seekPred := expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(300)))
	seekBound := mustBind(t, seekPred, e.sales.Schema)
	ix, _ := e.sales.IndexByName("ix_c2")
	ranges, _, ok := expr.IndexRanges(seekBound, ix.Cols)
	if !ok {
		t.Fatal("index unusable")
	}
	seekNode := &plan.Seek{Tab: e.sales, Index: ix, Ranges: ranges, Pred: seekBound}

	joinNode := &plan.Join{
		Method: plan.HashJoin,
		Outer: &plan.Scan{Tab: e.dim, Pred: mustBind(t,
			expr.And(expr.NewAtom("val", expr.Lt, tuple.Int64(200))), e.dim.Schema)},
		Inner:    &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}},
		OuterCol: "id", InnerCol: "id", Schem: joinPlanSchema(e),
	}

	cases := []struct {
		name string
		node plan.Node
		req  DPCRequest
		want [4]shedState // by level
	}{
		{"prefix scan", scanNode, DPCRequest{Table: "sales", Pred: prefix}, [4]shedState{
			{mech: MechExactScan, planted: true},
			{mech: MechDPSample, frac: f, shed: true, planted: true},
			{mech: MechLinearCount, bits: bits, shed: true, planted: true},
			{mech: MechExactScan, shed: true},
		}},
		{"non-prefix scan", scanNode, DPCRequest{Table: "sales", Pred: nonPrefix}, [4]shedState{
			{mech: MechDPSample, frac: f, planted: true},
			{mech: MechDPSample, frac: f / 4, shed: true, planted: true},
			{mech: MechDPSample, frac: f / 16, shed: true, planted: true},
			{mech: MechDPSample, shed: true},
		}},
		{"seek", seekNode, DPCRequest{Table: "sales", Pred: seekPred}, [4]shedState{
			{mech: MechLinearCount, bits: bits, planted: true},
			{mech: MechLinearCount, bits: bits, planted: true}, // level 1 leaves fetch counting alone
			{mech: MechLinearCount, bits: bits / 8, shed: true, planted: true},
			{mech: MechLinearCount, shed: true},
		}},
		{"join bit-vector", joinNode, DPCRequest{Table: "sales", Join: true}, [4]shedState{
			{mech: MechBitVector, frac: f, planted: true},
			{mech: MechBitVector, frac: f / 4, shed: true, planted: true},
			{mech: MechBitVector, shed: true},
			{mech: MechBitVector, shed: true},
		}},
	}

	for _, c := range cases {
		var baseRows int
		for lvl := 0; lvl <= 3; lvl++ {
			cfg := &MonitorConfig{
				Requests:       []DPCRequest{c.req},
				SampleFraction: f, LinearBits: bits, Seed: 7, ShedLevel: lvl,
			}
			rows, ex := runPlan(t, e, c.node, cfg)
			if lvl == 0 {
				baseRows = len(rows)
			} else if len(rows) != baseRows {
				t.Errorf("%s level %d: %d rows, level 0 returned %d", c.name, lvl, len(rows), baseRows)
			}
			res := ex.DPCResults()
			if len(res) != 1 {
				t.Fatalf("%s level %d: %d results, want 1: %+v", c.name, lvl, len(res), res)
			}
			r := res[0]
			got := shedState{mech: r.Mechanism, shed: r.Shed, planted: r.OpID >= 0}
			for _, m := range ex.scanMons {
				if m.dps != nil {
					got.frac = m.dps.Fraction()
				}
				if m.lc != nil {
					got.bits = m.lc.Bits()
				}
			}
			for _, m := range ex.seekMons {
				got.bits = m.lc.Bits()
			}
			if want := c.want[lvl]; got != want {
				t.Errorf("%s level %d: got %+v, want %+v", c.name, lvl, got, want)
			}
			if r.Degraded != r.Shed {
				t.Errorf("%s level %d: Degraded=%v but Shed=%v", c.name, lvl, r.Degraded, r.Shed)
			}
			if r.Shed && !strings.HasPrefix(r.Reason, "load-shed:") {
				t.Errorf("%s level %d: shed result reason %q", c.name, lvl, r.Reason)
			}
			if !got.planted && r.DPC != 0 {
				t.Errorf("%s level %d: unplanted monitor reports DPC %d", c.name, lvl, r.DPC)
			}
		}
	}
}
