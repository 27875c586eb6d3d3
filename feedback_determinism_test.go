package pagefeedback

import (
	"strings"
	"testing"

	"pagefeedback/internal/exec"
)

// determinismWorkload leaves feedback cache entries, page-count
// histograms (single-column ranges) and a join curve behind once applied.
var determinismWorkload = []string{
	"SELECT COUNT(padding) FROM t WHERE c2 < 2000",
	"SELECT COUNT(padding) FROM t WHERE c5 < 900",
	"SELECT COUNT(padding) FROM t WHERE c5 < 2000 AND c2 < 6000",
	"SELECT c1 FROM t WHERE c2 >= 100 AND c2 < 700",
	"SELECT COUNT(padding) FROM t, u WHERE u.c1 < 500 AND u.fk = t.c5",
}

// determinismStatsQuery is the join + GROUP BY query whose statistics
// document the test renders.
const determinismStatsQuery = "SELECT t.c2, COUNT(*) FROM t, u WHERE u.c1 < 300 AND u.fk = t.c5 GROUP BY t.c2"

// TestFeedbackSurfacesRenderDeterministically holds the plan-cache keys and
// the statistics document to byte-identical rendering: after a feedback
// workload, each query's planKey and the MarshalStats of a join + GROUP BY
// query must render the same 20 times on one engine, and the same again on
// a second engine built and fed the same way. A map ranged without sorting
// anywhere on these paths breaks the equality within a few renders.
// (Exported feedback is held to the same standard by the shape matrix's
// pinned export digest and the plan-cache parity tests.)
func TestFeedbackSurfacesRenderDeterministically(t *testing.T) {
	render := func() (keys []string, stats string) {
		eng := buildJoinDB(t, 8000)
		opts := &RunOptions{MonitorAll: true, SampleFraction: 0.25}
		for _, sql := range determinismWorkload {
			res, err := eng.Query(sql, opts)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			eng.ApplyFeedback(res)
		}
		entries := eng.FeedbackCache().Len()
		hists, curves := len(eng.Optimizer().DPCHistograms()), len(eng.Optimizer().JoinDPCCurves())
		if entries < 4 || hists == 0 || curves == 0 {
			t.Fatalf("workload left %d cache entries, %d histograms, %d join curves; want >= 4, >= 1, >= 1",
				entries, hists, curves)
		}

		for _, sql := range append(determinismWorkload, determinismStatsQuery) {
			q, err := eng.ParseQuery(sql)
			if err != nil {
				t.Fatal(err)
			}
			key := eng.planKey(q)
			for i := 1; i < 20; i++ {
				if again := eng.planKey(q); again != key {
					t.Fatalf("%s: planKey render %d = %q, first %q", sql, i, again, key)
				}
			}
			keys = append(keys, key)
		}

		// The first run re-optimizes (feedback invalidated the plan cache);
		// every run after it must render the same document.
		if _, err := eng.Query(determinismStatsQuery, opts); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			res, err := eng.Query(determinismStatsQuery, opts)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := exec.MarshalStats(res.Stats)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				stats = doc
			} else if doc != stats {
				t.Fatalf("statistics document render %d differs:\n%s\nfirst:\n%s", i, doc, stats)
			}
		}
		if !strings.Contains(stats, "<PageCount ") {
			t.Fatalf("statistics document has no page counts:\n%s", stats)
		}
		return keys, stats
	}

	keysA, statsA := render()
	keysB, statsB := render()
	for i := range keysA {
		if keysA[i] != keysB[i] {
			t.Errorf("planKey differs between engines: %q vs %q", keysA[i], keysB[i])
		}
	}
	if statsA != statsB {
		t.Errorf("statistics document differs between engines:\n%s\nvs\n%s", statsA, statsB)
	}
}
