// Feedback cache: the §II-C integration with LEO-style feedback
// infrastructure. Observations of (expression, cardinality, distinct page
// count) persist in a cache keyed by the canonical predicate, so a later
// "session" — here, a fresh optimizer state — reuses them without
// re-monitoring, including for predicates written with conjuncts in a
// different order.
package main

import (
	"fmt"
	"log"
	"strings"

	"pagefeedback"
)

func main() {
	eng := buildDB()

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
}

func buildDB() *pagefeedback.Engine {
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
