package pagefeedback

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pagefeedback/internal/exec"
	"pagefeedback/internal/plan"
)

func TestExportImportFeedbackRoundTrip(t *testing.T) {
	eng := buildTestDB(t, 20000)
	// Gather feedback for a few predicate shapes.
	workload := []string{
		"SELECT COUNT(padding) FROM t WHERE c2 < 200",
		"SELECT COUNT(padding) FROM t WHERE c2 BETWEEN 4000 AND 4300",
		"SELECT COUNT(padding) FROM t WHERE c5 < 777",
	}
	for _, sql := range workload {
		res, err := eng.Query(sql, &RunOptions{MonitorAll: true, SampleFraction: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		eng.ApplyFeedback(res)
	}
	var buf bytes.Buffer
	if err := eng.ExportFeedback(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{`"entries"`, `"histograms"`, `"dpc"`, "BETWEEN"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}

	// A brand-new engine over the same data: import and verify the plan
	// choice follows the imported feedback without any monitoring run.
	eng2 := buildTestDB(t, 20000)
	n, err := eng2.ImportFeedback(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Fatalf("imported %d entries", n)
	}
	q, _ := eng2.ParseQuery("SELECT COUNT(padding) FROM t WHERE c2 < 200")
	flipped := func(when string) {
		t.Helper()
		node, err := eng2.PlanQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, isSeek := node.(*plan.Agg).Input.(*plan.Seek); !isSeek {
			t.Errorf("%s: imported feedback did not flip the plan: %s", when, node.(*plan.Agg).Input.Label())
		}
	}
	flipped("after import")
	// The histogram generalization also carried over.
	if h, ok := eng2.Optimizer().DPCHistogram("t", "c2"); !ok || h.Len() == 0 {
		t.Error("histograms not imported")
	}
	// Cache contents match.
	if eng2.FeedbackCache().Len() != eng.FeedbackCache().Len() {
		t.Errorf("cache sizes differ: %d vs %d",
			eng2.FeedbackCache().Len(), eng.FeedbackCache().Len())
	}

	// Import stamps each entry with the importing engine's table version,
	// so a later session re-injects the imported observations from the
	// cache alone, as the source engine re-injects its own.
	for _, e := range []*Engine{eng, eng2} {
		e.Optimizer().ClearInjections()
		e.Optimizer().ClearDPCHistograms()
	}
	injected := map[*Engine]int{}
	for _, sql := range workload {
		for _, e := range []*Engine{eng, eng2} {
			wq, err := e.ParseQuery(sql)
			if err != nil {
				t.Fatal(err)
			}
			injected[e] += e.InjectFromCache(wq)
		}
	}
	if injected[eng2] != n || injected[eng] != n {
		t.Errorf("InjectFromCache re-injected %d imported and %d source entries, want %d each",
			injected[eng2], injected[eng], n)
	}
	flipped("after re-injection from the cache")
}

// TestExactFeedbackAgreesAcrossSurfaces: an exact observation followed by
// an estimate of the same expression at the same table version leaves the
// exact count in the cache, the exported entry and the optimizer alike —
// the cache decides which observation wins, and export and injection read
// its decision. Once the table changes, the estimate of the new data wins.
func TestExactFeedbackAgreesAcrossSurfaces(t *testing.T) {
	eng := buildTestDB(t, 5000)
	pred := And(NewAtom("c2", Lt, Int64(50)))
	observe := func(dpc int64, exact bool, mech string) {
		eng.ApplyFeedback(&Result{DPC: []exec.DPCResult{{
			Request:   exec.DPCRequest{Table: "t", Pred: pred},
			Mechanism: mech, DPC: dpc, Exact: exact, Cardinality: 50,
		}}})
	}
	check := func(when string, dpc int64, exact bool) {
		t.Helper()
		entries := eng.FeedbackCache().Entries()
		if len(entries) != 1 || entries[0].DPC != dpc || entries[0].Exact != exact {
			t.Errorf("%s: cache holds %+v, want DPC %d (exact %v)", when, entries, dpc, exact)
		}
		var buf bytes.Buffer
		if err := eng.ExportFeedback(&buf); err != nil {
			t.Fatal(err)
		}
		var dump feedbackDump
		if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
			t.Fatal(err)
		}
		if len(dump.Entries) != 1 || dump.Entries[0].DPC != dpc || dump.Entries[0].Exact != exact {
			t.Errorf("%s: exported entries %+v, want DPC %d (exact %v)", when, dump.Entries, dpc, exact)
		}
		if est, err := eng.Optimizer().EstimateDPC("t", pred); err != nil || est != float64(dpc) {
			t.Errorf("%s: optimizer estimates DPC %v (%v), want %d", when, est, err, dpc)
		}
	}
	observe(3, true, exec.MechExactScan)
	observe(10, false, exec.MechDPSample)
	check("exact then same-version estimate", 3, true)

	// Change the table behind the engine's back (no InvalidateFeedback):
	// the exact count is now stale and a fresh estimate replaces it.
	tab, _ := eng.Catalog().Table("t")
	if _, err := tab.Insert(Row{Int64(1 << 40), Int64(1 << 40), Int64(1 << 40), Str("x")}); err != nil {
		t.Fatal(err)
	}
	observe(12, false, exec.MechDPSample)
	check("estimate after a table change", 12, false)
}

func TestExportImportJoinCurves(t *testing.T) {
	eng := joinTestEnv(t, 20000)
	sql := "SELECT COUNT(padding) FROM t, u WHERE u.c1 < 200 AND u.c2 = t.c2"
	res, err := eng.Query(sql, &RunOptions{MonitorAll: true, SampleFraction: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	eng.ApplyFeedback(res)
	var buf bytes.Buffer
	if err := eng.ExportFeedback(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "joinCurves") {
		t.Fatalf("dump lacks join curves:\n%s", buf.String())
	}
	eng2 := joinTestEnv(t, 20000)
	if _, err := eng2.ImportFeedback(&buf); err != nil {
		t.Fatal(err)
	}
	c, ok := eng2.Optimizer().JoinDPCCurve("t", "c2")
	if !ok || c.Len() == 0 {
		t.Fatal("join curve not imported")
	}
	if m := joinMethodOf(t, eng2, sql); m.String() != "IndexNestedLoopsJoin" {
		t.Errorf("imported curve did not flip the join: %v", m)
	}
}

func TestImportFeedbackErrors(t *testing.T) {
	eng := buildTestDB(t, 5000)
	if _, err := eng.ImportFeedback(strings.NewReader("not json")); err == nil {
		t.Error("bad JSON imported")
	}
	if _, err := eng.ImportFeedback(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version imported")
	}
	if _, err := eng.ImportFeedback(strings.NewReader(
		`{"version":1,"entries":[{"table":"t","atoms":[{"col":"c2","op":"??","val":{"kind":"int"}}]}]}`)); err == nil {
		t.Error("unknown operator imported")
	}
	if _, err := eng.ImportFeedback(strings.NewReader(
		`{"version":1,"entries":[{"table":"t","atoms":[{"col":"c2","op":"=","val":{"kind":"blob"}}]}]}`)); err == nil {
		t.Error("unknown value kind imported")
	}
	if _, err := eng.ImportFeedback(strings.NewReader(
		`{"version":1,"entries":[{"table":"t","atoms":[{"col":"c2","op":"<","val":{"kind":"int","int":5}}],"dpc":-3}]}`)); err == nil {
		t.Error("negative DPC imported")
	}
	if _, err := eng.ImportFeedback(strings.NewReader(
		`{"version":1,"entries":[{"table":"t","atoms":[{"col":"c2","op":"BETWEEN","val":{"kind":"int","int":1}}]}]}`)); err == nil {
		t.Error("BETWEEN without upper bound imported")
	}
	dup := `{"table":"t","atoms":[{"col":"c2","op":"<","val":{"kind":"int","int":9}}],"dpc":4,"cardinality":9}`
	if _, err := eng.ImportFeedback(strings.NewReader(
		`{"version":1,"entries":[` + dup + `,` + dup + `]}`)); err == nil {
		t.Error("duplicate entries imported")
	}
	// Two records for one histogram or join curve, even spelled in
	// different case, would merge on import and double on re-export.
	obs := `"observations":[{"Lo":1,"Hi":9,"Rows":9,"DPC":2}]`
	if _, err := eng.ImportFeedback(strings.NewReader(
		`{"version":1,"histograms":[{"table":"t","column":"c2",` + obs + `},{"table":"T","column":"C2",` + obs + `}]}`)); err == nil {
		t.Error("duplicate histograms imported")
	}
	pts := `"points":[{"Rows":9,"DPC":2}]`
	if _, err := eng.ImportFeedback(strings.NewReader(
		`{"version":1,"joinCurves":[{"table":"t","joinCol":"c2",` + pts + `},{"table":"T","joinCol":"C2",` + pts + `}]}`)); err == nil {
		t.Error("duplicate join curves imported")
	}
	if n := len(eng.Optimizer().DPCHistograms()) + len(eng.Optimizer().JoinDPCCurves()); n != 0 {
		t.Errorf("rejected imports left %d histograms and join curves behind", n)
	}
}

// TestImportFeedbackAtomicity: a dump whose tail is invalid must be rejected
// wholesale — the valid leading entries never reach the cache or the
// optimizer (the half-poisoned-import failure mode).
func TestImportFeedbackAtomicity(t *testing.T) {
	eng := buildTestDB(t, 5000)
	good := `{"table":"t","atoms":[{"col":"c2","op":"<","val":{"kind":"int","int":123}}],"dpc":7,"cardinality":123}`
	bad := `{"table":"t","atoms":[{"col":"c5","op":"??","val":{"kind":"int","int":1}}],"dpc":1}`
	n, err := eng.ImportFeedback(strings.NewReader(
		`{"version":1,"entries":[` + good + `,` + bad + `]}`))
	if err == nil {
		t.Fatal("invalid dump imported")
	}
	if n != 0 {
		t.Errorf("partial import reported %d entries", n)
	}
	if got := eng.FeedbackCache().Len(); got != 0 {
		t.Errorf("failed import left %d cache entries behind", got)
	}
	if est, _ := eng.Optimizer().EstimateDPC("t", And(NewAtom("c2", Lt, Int64(123)))); est == 7 {
		t.Error("failed import injected a DPC into the optimizer")
	}
}

func TestExplainShowsProvenance(t *testing.T) {
	eng := buildTestDB(t, 20000)
	const sql = "SELECT COUNT(padding) FROM t WHERE c2 < 300"
	out, err := eng.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "analytical (Yao)") || !strings.Contains(out, "ClusteredIndexScan") {
		t.Errorf("pre-feedback explain:\n%s", out)
	}
	res, err := eng.Query(sql, &RunOptions{MonitorAll: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.ApplyFeedback(res)
	out2, err := eng.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "execution feedback") || !strings.Contains(out2, "IndexSeek") {
		t.Errorf("post-feedback explain:\n%s", out2)
	}
	// A similar predicate shows the histogram as its source.
	out3, err := eng.Explain("SELECT COUNT(padding) FROM t WHERE c2 BETWEEN 9000 AND 9400")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "self-tuning histogram") {
		t.Errorf("histogram provenance missing:\n%s", out3)
	}
	if _, err := eng.Explain("SELECT COUNT(*) FROM ghost"); err == nil {
		t.Error("explain of bad query succeeded")
	}
}
