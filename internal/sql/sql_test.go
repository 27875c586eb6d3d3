package sql

import (
	"strings"
	"testing"
	"time"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	d := storage.NewDiskManager(storage.DefaultIOModel())
	cat := catalog.New(storage.NewBufferPool(d, 64))
	sales := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "shipdate", Kind: tuple.KindDate},
		tuple.Column{Name: "state", Kind: tuple.KindString},
		tuple.Column{Name: "pad", Kind: tuple.KindString},
	)
	if _, err := cat.CreateHeapTable("sales", sales); err != nil {
		t.Fatal(err)
	}
	vendors := tuple.NewSchema(
		tuple.Column{Name: "vid", Kind: tuple.KindInt},
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "region", Kind: tuple.KindString},
	)
	if _, err := cat.CreateHeapTable("vendors", vendors); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestParseSingleTable(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "SELECT COUNT(pad) FROM sales WHERE shipdate = '2007-06-01' AND state = 'CA'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "sales" || q.IsJoin() {
		t.Errorf("table = %q join=%v", q.Table, q.IsJoin())
	}
	if q.Agg != plan.CountAgg || q.AggCol != "pad" {
		t.Errorf("agg = %v(%s)", q.Agg, q.AggCol)
	}
	if len(q.Pred.Atoms) != 2 {
		t.Fatalf("atoms = %v", q.Pred)
	}
	a := q.Pred.Atoms[0]
	if a.Col != "shipdate" || a.Op != expr.Eq || a.Val.Kind != tuple.KindDate {
		t.Errorf("atom0 = %+v", a)
	}
	want := tuple.DateFromTime(time.Date(2007, 6, 1, 0, 0, 0, 0, time.UTC))
	if a.Val.Int != want.Int {
		t.Errorf("date = %d, want %d", a.Val.Int, want.Int)
	}
	if q.Pred.Atoms[1].Val.Str != "CA" {
		t.Errorf("atom1 = %+v", q.Pred.Atoms[1])
	}
}

func TestParseOperatorsAndLiterals(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "select count(*) from sales where id >= -5 and id <> 7 and id <= 100")
	if err != nil {
		t.Fatal(err)
	}
	if q.AggCol != "" {
		t.Errorf("COUNT(*) got col %q", q.AggCol)
	}
	ops := []expr.CmpOp{expr.Ge, expr.Ne, expr.Le}
	for i, op := range ops {
		if q.Pred.Atoms[i].Op != op {
			t.Errorf("atom %d op = %v, want %v", i, q.Pred.Atoms[i].Op, op)
		}
	}
	if q.Pred.Atoms[0].Val.Int != -5 {
		t.Errorf("negative literal = %d", q.Pred.Atoms[0].Val.Int)
	}
}

func TestParseBetweenAndIn(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "SELECT SUM(id) FROM sales WHERE id BETWEEN 10 AND 20 AND state IN ('CA','WA')")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != plan.SumAgg {
		t.Errorf("agg = %v", q.Agg)
	}
	if q.Pred.Atoms[0].Op != expr.Between || q.Pred.Atoms[0].Val.Int != 10 || q.Pred.Atoms[0].Val2.Int != 20 {
		t.Errorf("between = %+v", q.Pred.Atoms[0])
	}
	if q.Pred.Atoms[1].Op != expr.In || len(q.Pred.Atoms[1].List) != 2 {
		t.Errorf("in = %+v", q.Pred.Atoms[1])
	}
}

func TestParseJoin(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "SELECT COUNT(pad) FROM sales, vendors WHERE vendors.vid < 100 AND vendors.id = sales.id AND state = 'CA'")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsJoin() || q.Table != "sales" || q.Table2 != "vendors" {
		t.Fatalf("tables = %q, %q", q.Table, q.Table2)
	}
	if q.JoinCol != "id" || q.JoinCol2 != "id" {
		t.Errorf("join cols = %q, %q", q.JoinCol, q.JoinCol2)
	}
	// vid predicate lands on vendors (Pred2), state on sales (Pred).
	if len(q.Pred2.Atoms) != 1 || q.Pred2.Atoms[0].Col != "vid" {
		t.Errorf("Pred2 = %v", q.Pred2)
	}
	if len(q.Pred.Atoms) != 1 || q.Pred.Atoms[0].Col != "state" {
		t.Errorf("Pred = %v", q.Pred)
	}
}

// TestParseJoinKinds: a join key pair must compare — INT with VARCHAR is a
// parse error in either order (hash, INL and merge join would otherwise
// disagree on it), while INT with DATE and VARCHAR with VARCHAR parse.
func TestParseJoinKinds(t *testing.T) {
	cat := testCatalog(t)
	for _, on := range []string{"sales.state = vendors.id", "vendors.region = sales.id", "sales.pad = vendors.vid"} {
		_, err := Parse(cat, "SELECT COUNT(*) FROM sales, vendors WHERE "+on)
		if err == nil || !strings.Contains(err.Error(), "join compares") {
			t.Errorf("%s: err = %v, want a join kind error", on, err)
		}
	}
	for _, on := range []string{"sales.shipdate = vendors.vid", "vendors.id = sales.shipdate", "sales.state = vendors.region"} {
		if _, err := Parse(cat, "SELECT COUNT(*) FROM sales, vendors WHERE "+on); err != nil {
			t.Errorf("%s: %v", on, err)
		}
	}
}

func TestParseUnqualifiedAmbiguous(t *testing.T) {
	cat := testCatalog(t)
	// "id" exists in both tables.
	_, err := Parse(cat, "SELECT COUNT(*) FROM sales, vendors WHERE id < 5 AND vendors.id = sales.id")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("err = %v, want ambiguity", err)
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []string{
		"",
		"SELECT",
		"SELECT COUNT(pad) FROM nope",                          // unknown table
		"SELECT bogus FROM sales",                              // unknown select column
		"SELECT pad FROM sales ORDER BY nope",                  // unknown order column
		"SELECT pad FROM sales LIMIT 0",                        // non-positive limit
		"SELECT pad FROM sales LIMIT x",                        // non-numeric limit
		"SELECT COUNT(pad) FROM sales LIMIT 5",                 // limit on aggregate
		"SELECT avg(pad) FROM sales",                           // unknown aggregate
		"SELECT COUNT(pad) FROM sales WHERE bogus=1",           // unknown column
		"SELECT COUNT(pad) FROM sales WHERE state=3",           // type mismatch
		"SELECT COUNT(pad) FROM sales WHERE id='x'",            // type mismatch
		"SELECT COUNT(pad) FROM sales WHERE id <",              // missing literal
		"SELECT COUNT(pad) FROM sales, vendors",                // no join predicate
		"SELECT COUNT(pad) FROM sales WHERE id = 1 x",          // trailing tokens
		"SELECT SUM(*) FROM sales",                             // SUM(*)
		"SELECT COUNT(pad) FROM sales WHERE shipdate = 'junk'", // bad date
	}
	for _, src := range cases {
		if _, err := Parse(cat, src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "SELECT COUNT(*) FROM sales WHERE state = 'O''Brien'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Pred.Atoms[0].Val.Str != "O'Brien" {
		t.Errorf("escaped string = %q", q.Pred.Atoms[0].Val.Str)
	}
}

func TestParseDateAsNumber(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "SELECT COUNT(*) FROM sales WHERE shipdate < 13665")
	if err != nil {
		t.Fatal(err)
	}
	if q.Pred.Atoms[0].Val.Kind != tuple.KindDate || q.Pred.Atoms[0].Val.Int != 13665 {
		t.Errorf("date literal = %+v", q.Pred.Atoms[0].Val)
	}
}

func TestParseProjection(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "SELECT state, pad FROM sales WHERE id < 10 ORDER BY shipdate DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsProjection() || q.Star {
		t.Fatalf("projection flags: star=%v cols=%v", q.Star, q.SelectCols)
	}
	if len(q.SelectCols) != 2 || q.SelectCols[0] != "state" || q.SelectCols[1] != "pad" {
		t.Errorf("SelectCols = %v", q.SelectCols)
	}
	if q.OrderBy != "shipdate" || !q.OrderDesc {
		t.Errorf("order = %q desc=%v", q.OrderBy, q.OrderDesc)
	}
	if q.Limit != 5 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseStar(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "SELECT * FROM sales WHERE id < 10 ORDER BY id ASC")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star || q.OrderBy != "id" || q.OrderDesc {
		t.Errorf("star=%v order=%q desc=%v", q.Star, q.OrderBy, q.OrderDesc)
	}
}

func TestParseQualifiedSelectList(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat,
		"SELECT sales.pad, vendors.region FROM sales, vendors WHERE vendors.id = sales.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.SelectCols) != 2 || q.SelectCols[0] != "sales.pad" || q.SelectCols[1] != "vendors.region" {
		t.Errorf("SelectCols = %v", q.SelectCols)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("select # from t"); err == nil {
		t.Error("bad character lexed")
	}
	if _, err := lex("select 'unterminated"); err == nil {
		t.Error("unterminated string lexed")
	}
}
