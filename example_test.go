package pagefeedback_test

// The paper's walkthroughs as runnable, checked examples: `go test -run
// Example -v .` runs them, and each `// Output:` block pins every number
// the walkthrough prints.

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"pagefeedback"
	"pagefeedback/internal/datagen"
)

// Create a database, load a table whose date column correlates with the
// load order, run a query with distinct-page-count monitoring, and read the
// feedback: the smallest end-to-end tour of the public API.
func Example_quickstart() {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())

	// A sales table clustered on id. Orders arrive day by day, so shipdate
	// tracks the clustering order — exactly the situation where the
	// optimizer's analytical page-count model goes wrong (Example 1 of the
	// paper).
	schema := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "id", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "shipdate", Kind: pagefeedback.KindDate},
		pagefeedback.Column{Name: "state", Kind: pagefeedback.KindString},
		pagefeedback.Column{Name: "pad", Kind: pagefeedback.KindString},
	)
	if _, err := eng.CreateClusteredTable("sales", schema, []string{"id"}); err != nil {
		log.Fatal(err)
	}

	const n = 50000
	states := []string{"CA", "WA", "OR", "NV"}
	pad := strings.Repeat("x", 60)
	rows := make([]pagefeedback.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = pagefeedback.Row{
			pagefeedback.Int64(int64(i)),
			pagefeedback.Date(int64(13000 + i/500)), // ~500 orders/day
			pagefeedback.Str(states[i%4]),
			pagefeedback.Str(pad),
		}
	}
	if err := eng.Load("sales", rows); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.CreateIndex("ix_shipdate", "sales", "shipdate"); err != nil {
		log.Fatal(err)
	}
	if err := eng.Analyze("sales"); err != nil {
		log.Fatal(err)
	}

	// Two days of orders: 1000 rows on ~13 contiguous pages — but the
	// optimizer assumes they are scattered across ~half the table, making
	// the index look 40x too expensive.
	const query = "SELECT COUNT(pad) FROM sales WHERE shipdate BETWEEN '2005-08-14' AND '2005-08-15'"
	res, err := eng.Query(query, &pagefeedback.RunOptions{MonitorAll: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n", query)
	fmt.Printf("count = %d, simulated time = %v\n\n", res.Rows[0][0].Int, res.SimulatedTime)

	fmt.Println("distinct page counts from execution feedback:")
	for i, x := range res.Stats.DPC {
		fmt.Printf("  %s: estimated %d pages, actual %d pages (%s)\n",
			x.Expression, x.Estimated, x.Actual, res.DPC[i].Mechanism)
	}

	// Feed the observation back and run again: the plan flips to the index.
	eng.ApplyFeedback(res)
	res2, err := eng.Query(query, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter feedback: simulated time = %v (%.0f%% faster)\n",
		res2.SimulatedTime, speedup(res, res2))

	// Output:
	// query: SELECT COUNT(pad) FROM sales WHERE shipdate BETWEEN '2005-08-14' AND '2005-08-15'
	// count = 1000, simulated time = 125.4ms
	//
	// distinct page counts from execution feedback:
	//   shipdate BETWEEN 2005-08-14 AND 2005-08-15: estimated 501 pages, actual 13 pages (exact-scan)
	//
	// after feedback: simulated time = 15.5ms (88% faster)
}

// The §II-C DBA workflow. A nightly report query is slow; the DBA suspects
// the optimizer passed over a useful index. Monitoring the running plan
// reveals the page-count estimation error for each candidate index
// expression, the statistics-xml document records it, and injecting the
// fed-back counts produces the corrected plan a hint would force.
func Example_dbaDiagnosis() {
	eng := buildInventoryDB()

	// The report: the last few weeks of receipts in one product category.
	// Both predicates have usable indexes; the optimizer's analytical model
	// says fetching through either index touches most of the table.
	const report = "SELECT COUNT(pad) FROM inventory WHERE received >= '2009-02-01' AND category = 17"

	fmt.Println("== step 1: run the slow report with monitoring on ==")
	res, err := eng.Query(report, &pagefeedback.RunOptions{
		MonitorAll:     true,
		SampleFraction: 0.10, // category=17 is not a prefix: page sampling bounds the cost
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan P executed in (simulated) %v, count = %d\n\n",
		res.SimulatedTime, res.Rows[0][0].Int)

	fmt.Println("== step 2: inspect estimated vs actual page counts ==")
	for i, x := range res.Stats.DPC {
		verdict := "ok"
		switch {
		case res.DPC[i].Mechanism == pagefeedback.MechUnsatisfiable:
			verdict = "not observable from this plan"
		case x.Actual > 0 && x.Estimated > 3*x.Actual:
			verdict = fmt.Sprintf("OVERESTIMATED %dx", x.Estimated/x.Actual)
		}
		fmt.Printf("  %-45s est=%6d act=%6d  [%s]  %s\n",
			x.Expression, x.Estimated, x.Actual, res.DPC[i].Mechanism, verdict)
	}

	// The statistics-xml document is what a tuning tool would consume.
	xmlDoc, err := pagefeedback.MarshalStats(res.Stats)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n(statistics xml document: %d bytes, %d PageCount entries)\n\n",
		len(xmlDoc), len(res.Stats.DPC))

	fmt.Println("== step 3: re-optimize with the fed-back page counts ==")
	eng.ApplyFeedback(res)
	res2, err := eng.Query(report, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan P' executed in (simulated) %v\n", res2.SimulatedTime)
	fmt.Printf("speedup (T-T')/T = %.0f%%\n", speedup(res, res2))
	// The DBA can now force P' with a plan hint, or leave the injected
	// feedback in place so future compilations of this predicate use it.

	// Output:
	// == step 1: run the slow report with monitoring on ==
	// plan P executed in (simulated) 193.26ms, count = 60
	//
	// == step 2: inspect estimated vs actual page counts ==
	//   received >= 2009-02-01 AND category = 17      est=    59 act=    31  [exact-scan]  ok
	//   received >= 2009-02-01                        est=   922 act=    31  [exact-scan]  OVERESTIMATED 29x
	//   category = 17                                 est=   876 act=  1070  [dpsample]  ok
	//
	// (statistics xml document: 977 bytes, 3 PageCount entries)
	//
	// == step 3: re-optimize with the fed-back page counts ==
	// plan P' executed in (simulated) 18.16ms
	// speedup (T-T')/T = 91%
}

// buildInventoryDB loads an inventory table where `received` tracks the
// clustered load order (goods logged as they arrive) while `category` is
// scattered.
func buildInventoryDB() *pagefeedback.Engine {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())
	schema := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "id", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "received", Kind: pagefeedback.KindDate},
		pagefeedback.Column{Name: "category", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "pad", Kind: pagefeedback.KindString},
	)
	if _, err := eng.CreateClusteredTable("inventory", schema, []string{"id"}); err != nil {
		log.Fatal(err)
	}
	const n = 80000
	pad := strings.Repeat("i", 60)
	rows := make([]pagefeedback.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = pagefeedback.Row{
			pagefeedback.Int64(int64(i)),
			pagefeedback.Date(int64(13500 + i/100)),               // 100 receipts/day
			pagefeedback.Int64(int64((i * 2654435761 >> 8) % 40)), // scattered categories
			pagefeedback.Str(pad),
		}
	}
	if err := eng.Load("inventory", rows); err != nil {
		log.Fatal(err)
	}
	for _, ix := range []struct{ name, col string }{
		{"ix_received", "received"},
		{"ix_category", "category"},
	} {
		if _, err := eng.CreateIndex(ix.name, "inventory", ix.col); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Analyze("inventory"); err != nil {
		log.Fatal(err)
	}
	return eng
}

// The §IV scenario. An orders ⋈ lineitems join runs as a Hash Join; whether
// Index Nested Loops would be cheaper depends on how many distinct lineitems
// pages the join key actually touches — a quantity the optimizer's
// Mackert-Lohman model badly overestimates when both tables are clustered by
// time. The bit-vector filter built during the hash join's build phase lets
// the engine measure the true count from the probe-side scan, and feeding it
// back flips the join method.
func Example_joinTuning() {
	eng := buildSalesDB()

	// Last week's orders joined to their lineitems. Both tables are
	// clustered by id sequence (time), so the matching lineitems rows sit
	// on a handful of contiguous pages.
	const query = "SELECT COUNT(lineitems.pad) FROM lineitems, orders " +
		"WHERE orders.odate >= '2007-05-27' AND orders.oid = lineitems.oid"

	res, err := eng.Query(query, &pagefeedback.RunOptions{
		MonitorAll:     true,
		SampleFraction: 1.0,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan P:  %v (simulated), %d result rows counted\n",
		res.SimulatedTime, res.Rows[0][0].Int)
	for i, x := range res.Stats.DPC {
		if res.DPC[i].Request.Join && res.DPC[i].Mechanism != pagefeedback.MechUnsatisfiable {
			fmt.Printf("join DPC on %s via %s: estimated %d pages, observed %d\n",
				x.Table, res.DPC[i].Mechanism, x.Estimated, x.Actual)
		}
	}

	eng.ApplyFeedback(res)
	res2, err := eng.Query(query, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan P': %v (simulated)\n", res2.SimulatedTime)
	fmt.Printf("speedup: %.0f%%\n", speedup(res, res2))

	// Output:
	// plan P:  302.7ms (simulated), 800 result rows counted
	// join DPC on lineitems via bitvector+dpsample: estimated 541 pages, observed 11
	// plan P': 46.8ms (simulated)
	// speedup: 85%
}

func buildSalesDB() *pagefeedback.Engine {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())

	orders := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "oid", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "odate", Kind: pagefeedback.KindDate},
	)
	if _, err := eng.CreateClusteredTable("orders", orders, []string{"oid"}); err != nil {
		log.Fatal(err)
	}
	const nOrders = 20000
	orows := make([]pagefeedback.Row, nOrders)
	for i := 0; i < nOrders; i++ {
		orows[i] = pagefeedback.Row{
			pagefeedback.Int64(int64(i)),
			pagefeedback.Date(int64(13000 + i/30)), // 30 orders/day
		}
	}
	if err := eng.Load("orders", orows); err != nil {
		log.Fatal(err)
	}

	lineitems := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "lid", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "oid", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "pad", Kind: pagefeedback.KindString},
	)
	if _, err := eng.CreateClusteredTable("lineitems", lineitems, []string{"lid"}); err != nil {
		log.Fatal(err)
	}
	pad := strings.Repeat("l", 60)
	const perOrder = 4
	lrows := make([]pagefeedback.Row, 0, nOrders*perOrder)
	for i := 0; i < nOrders; i++ {
		for j := 0; j < perOrder; j++ {
			lrows = append(lrows, pagefeedback.Row{
				pagefeedback.Int64(int64(i*perOrder + j)),
				pagefeedback.Int64(int64(i)), // lineitems cluster with their order
				pagefeedback.Str(pad),
			})
		}
	}
	if err := eng.Load("lineitems", lrows); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.CreateIndex("ix_li_oid", "lineitems", "oid"); err != nil {
		log.Fatal(err)
	}
	if err := eng.Analyze("orders", "lineitems"); err != nil {
		log.Fatal(err)
	}
	return eng
}

// The §II-C integration with LEO-style feedback infrastructure.
// Observations of (expression, cardinality, distinct page count) persist in
// a cache keyed by the canonical predicate, so a later "session" — here, a
// fresh optimizer state — reuses them without re-monitoring, including for
// predicates written with conjuncts in a different order.
func Example_feedbackCache() {
	eng := buildEventsDB()

	monitored := "SELECT COUNT(pad) FROM events WHERE etype = 3 AND day < '2006-02-23'"
	fmt.Println("session 1: run with monitoring and store the feedback")
	res, err := eng.Query(monitored, &pagefeedback.RunOptions{MonitorAll: true, SampleFraction: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	eng.ApplyFeedback(res)

	fmt.Printf("feedback cache now holds %d entries:\n", eng.FeedbackCache().Len())
	for _, e := range eng.FeedbackCache().Entries() {
		fmt.Printf("  %s | %-35s card=%-6d dpc=%-5d via %s (exact=%v)\n",
			e.Table, e.Pred, e.Cardinality, e.DPC, e.Mechanism, e.Exact)
	}

	// Simulate a fresh session: injections gone, cache kept.
	eng.Optimizer().ClearInjections()

	// The same predicate, conjuncts reordered: the canonical cache key
	// still matches.
	reordered := "SELECT COUNT(pad) FROM events WHERE day < '2006-02-23' AND etype = 3"
	q, err := eng.ParseQuery(reordered)
	if err != nil {
		log.Fatal(err)
	}
	n := eng.InjectFromCache(q)
	fmt.Printf("\nsession 2: InjectFromCache found %d cached observation(s) for the reordered query\n", n)

	res2, err := eng.RunQuery(q, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-optimized run: %v simulated (was %v unaided)\n",
		res2.SimulatedTime, res.SimulatedTime)

	// Output:
	// session 1: run with monitoring and store the feedback
	// feedback cache now holds 3 entries:
	//   events | day < 2006-02-23                    card=790    dpc=10    via dpsample (exact=false)
	//   events | etype = 3 AND day < 2006-02-23      card=80     dpc=11    via exact-scan (exact=true)
	//   events | etype = 3                           card=6000   dpc=760   via exact-scan (exact=true)
	//
	// session 2: InjectFromCache found 3 cached observation(s) for the reordered query
	// re-optimized run: 14.08ms simulated (was 147.98ms unaided)
}

func buildEventsDB() *pagefeedback.Engine {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())
	schema := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "id", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "day", Kind: pagefeedback.KindDate},
		pagefeedback.Column{Name: "etype", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "pad", Kind: pagefeedback.KindString},
	)
	if _, err := eng.CreateClusteredTable("events", schema, []string{"id"}); err != nil {
		log.Fatal(err)
	}
	const n = 60000
	pad := strings.Repeat("e", 60)
	rows := make([]pagefeedback.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = pagefeedback.Row{
			pagefeedback.Int64(int64(i)),
			pagefeedback.Date(int64(13200 + i/400)), // events logged in day order
			pagefeedback.Int64(int64(i % 10)),
			pagefeedback.Str(pad),
		}
	}
	if err := eng.Load("events", rows); err != nil {
		log.Fatal(err)
	}
	for _, ix := range []struct{ name, col string }{
		{"ix_day", "day"}, {"ix_etype", "etype"},
	} {
		if _, err := eng.CreateIndex(ix.name, "events", ix.col); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Analyze("events"); err != nil {
		log.Fatal(err)
	}
	return eng
}

// The §VI future-work loop, end to end. One monitored query teaches the
// engine a column's clustering density and a join's page-count curve;
// different predicates and selectivities then plan correctly with no further
// monitoring; and the learned state survives a "restart" through JSON
// export/import.
func Example_selfTuning() {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())
	if _, err := datagen.BuildSynthetic(eng, 100000, 1); err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- 1. one monitored query on the correlated column c2 --")
	trained := "SELECT COUNT(padding) FROM t WHERE c2 < 1000"
	res, err := eng.Query(trained, &pagefeedback.RunOptions{MonitorAll: true})
	if err != nil {
		log.Fatal(err)
	}
	x := res.Stats.DPC[0]
	fmt.Printf("   %s: estimated %d pages, observed %d\n", x.Expression, x.Estimated, x.Actual)
	eng.ApplyFeedback(res)

	fmt.Println("\n-- 2. a DIFFERENT range on c2 plans through the learned histogram --")
	similar := "SELECT COUNT(padding) FROM t WHERE c2 BETWEEN 40000 AND 41500"
	explain(eng, similar)

	fmt.Println("\n-- 3. one monitored join teaches the join-DPC curve --")
	join := "SELECT COUNT(t.padding) FROM t, t1 WHERE t1.c1 < 1000 AND t1.c2 = t.c2"
	jres, err := eng.Query(join, &pagefeedback.RunOptions{MonitorAll: true, SampleFraction: 1.0})
	if err != nil {
		log.Fatal(err)
	}
	eng.ApplyFeedback(jres)
	fmt.Println("   3x the outer selectivity, no re-monitoring:")
	explain(eng, "SELECT COUNT(t.padding) FROM t, t1 WHERE t1.c1 < 3000 AND t1.c2 = t.c2")

	fmt.Println("\n-- 4. the learned state survives a restart --")
	var buf bytes.Buffer
	if err := eng.ExportFeedback(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   exported %d bytes of feedback state\n", buf.Len())

	eng2 := pagefeedback.New(pagefeedback.DefaultConfig())
	if _, err := datagen.BuildSynthetic(eng2, 100000, 1); err != nil {
		log.Fatal(err)
	}
	n, err := eng2.ImportFeedback(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   fresh engine imported %d entries; plan for the similar query:\n", n)
	explain(eng2, similar)

	// Output:
	// -- 1. one monitored query on the correlated column c2 --
	//    c2 < 1000: estimated 712 pages, observed 14
	//
	// -- 2. a DIFFERENT range on c2 plans through the learned histogram --
	//    COUNT(padding)  [rows=1 cost=98ms]
	//      IndexSeek(t.ix_t_c2: c2 BETWEEN 40000 AND 41500)  [rows=1501 dpc=21 cost=98ms]
	//    DPC(t, c2 BETWEEN 40000 AND 41500) ~ 21 pages  [self-tuning histogram]
	//
	// -- 3. one monitored join teaches the join-DPC curve --
	//    3x the outer selectivity, no re-monitoring:
	//    COUNT(t.padding)  [rows=1 cost=240.51ms]
	//      IndexNestedLoopsJoin(outer.c2 = t.c2 via ix_t_c2)  [rows=3000 dpc=42 cost=240.51ms]
	//        ClusteredIndexRangeScan(t1: c1 < 3000)  [rows=3000 cost=19.11ms]
	//    DPC(t1, c1 < 3000) ~ 42 pages  [self-tuning histogram]
	//
	// -- 4. the learned state survives a restart --
	//    exported 1226 bytes of feedback state
	//    fresh engine imported 2 entries; plan for the similar query:
	//    COUNT(padding)  [rows=1 cost=98ms]
	//      IndexSeek(t.ix_t_c2: c2 BETWEEN 40000 AND 41500)  [rows=1501 dpc=21 cost=98ms]
	//    DPC(t, c2 BETWEEN 40000 AND 41500) ~ 21 pages  [self-tuning histogram]
}

// explain prints the plan the optimizer would pick for sql, indented.
func explain(eng *pagefeedback.Engine, sql string) {
	out, err := eng.Explain(sql)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if line != "" {
			fmt.Println("   " + line)
		}
	}
}

// speedup is the paper's (T−T′)/T in percent, on the simulated clock.
func speedup(p, pPrime *pagefeedback.Result) float64 {
	return 100 * float64(p.SimulatedTime-pPrime.SimulatedTime) / float64(p.SimulatedTime)
}
