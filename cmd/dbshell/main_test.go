package main

import (
	"bytes"
	"testing"

	"pagefeedback"
	"pagefeedback/internal/datagen"
)

// TestReadmeSession drives the shell through README's session on the
// default demo database (-rows 100000 -seed 1) and pins every line it prints.
func TestReadmeSession(t *testing.T) {
	eng := pagefeedback.New(pagefeedback.DefaultConfig())
	if _, err := datagen.BuildSynthetic(eng, 100000, 1); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sh := &shell{eng: eng, monitor: true, out: &out}
	const query = "SELECT COUNT(padding) FROM t WHERE c2 < 2000"
	const indexPlan = `COUNT(padding)  [rows=1 cost=126.59ms]
  IndexSeek(t.ix_t_c2: c2 < 2000)  [rows=2000 dpc=28 cost=126.59ms]
`
	for _, step := range []struct{ in, want string }{
		{query, `COUNT(padding)  [rows=1 cost=240.9ms]
  ClusteredIndexScan(t: c2 < 2000)  [rows=2000 cost=240.9ms]
  -> (2000)
simulated time 250.9ms  (1372 physical reads, 3 random)
DPC c2 < 2000: est 1057, actual 28 (exact-scan)  <-- overestimated
`},
		{`\feedback apply`, "applied 1 observation(s); re-run the query to see the new plan\n"},
		{query, indexPlan + `  -> (2000)
simulated time 23.2ms  (36 physical reads, 4 random)
DPC c2 < 2000: est 28, actual 27 (linear-counting)
`},
		{`\explain ` + query, indexPlan + "DPC(t, c2 < 2000) ~ 28 pages  [execution feedback]\n"},
		// The statement name "p" also occurs in `\prepare` itself.
		{`\prepare p SELECT COUNT(padding) FROM t WHERE c2 < ?`, "prepared p (1 parameter(s))\n"},
		{`\exec p 2000`, indexPlan + `  -> (2000)
simulated time 23.2ms  (36 physical reads, 4 random, plan cached)
DPC c2 < 2000: est 28, actual 27 (linear-counting)
`},
	} {
		out.Reset()
		if !sh.handle(step.in) {
			t.Fatalf("%s quit the shell", step.in)
		}
		if got := out.String(); got != step.want {
			t.Errorf("%s printed\n%s\nwant\n%s", step.in, got, step.want)
		}
	}
}
