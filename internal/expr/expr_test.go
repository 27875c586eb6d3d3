package expr

import (
	"testing"

	"pagefeedback/internal/tuple"
)

func salesSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "shipdate", Kind: tuple.KindDate},
		tuple.Column{Name: "state", Kind: tuple.KindString},
		tuple.Column{Name: "vendorid", Kind: tuple.KindInt},
	)
}

func sampleRow() tuple.Row {
	return tuple.Row{tuple.Int64(1), tuple.Date(13665), tuple.Str("CA"), tuple.Int64(7)}
}

func mustBind(t *testing.T, c Conjunction) Conjunction {
	t.Helper()
	b, err := c.Bind(salesSchema())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAtomOperators(t *testing.T) {
	row := sampleRow()
	cases := []struct {
		atom Atom
		want bool
	}{
		{NewAtom("state", Eq, tuple.Str("CA")), true},
		{NewAtom("state", Eq, tuple.Str("WA")), false},
		{NewAtom("state", Ne, tuple.Str("WA")), true},
		{NewAtom("id", Lt, tuple.Int64(2)), true},
		{NewAtom("id", Lt, tuple.Int64(1)), false},
		{NewAtom("id", Le, tuple.Int64(1)), true},
		{NewAtom("id", Gt, tuple.Int64(0)), true},
		{NewAtom("id", Ge, tuple.Int64(1)), true},
		{NewAtom("id", Ge, tuple.Int64(2)), false},
		{NewBetween("shipdate", tuple.Date(13660), tuple.Date(13670)), true},
		{NewBetween("shipdate", tuple.Date(13666), tuple.Date(13670)), false},
		{NewIn("vendorid", tuple.Int64(5), tuple.Int64(7)), true},
		{NewIn("vendorid", tuple.Int64(5), tuple.Int64(6)), false},
	}
	for _, c := range cases {
		b, err := c.atom.Bind(salesSchema())
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Eval(row); got != c.want {
			t.Errorf("%s = %v, want %v", c.atom, got, c.want)
		}
	}
}

func TestAtomBindErrors(t *testing.T) {
	if _, err := NewAtom("missing", Eq, tuple.Int64(1)).Bind(salesSchema()); err == nil {
		t.Error("binding missing column succeeded")
	}
	if _, err := (Atom{Col: "id", Op: In + 1, Val: tuple.Int64(1)}).Bind(salesSchema()); err == nil {
		t.Error("binding an atom with no valid operator succeeded")
	}
}

func TestUnboundEvalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eval on unbound atom did not panic")
		}
	}()
	NewAtom("id", Eq, tuple.Int64(1)).Eval(sampleRow())
}

func TestConjunctionEvalShortCircuit(t *testing.T) {
	c := mustBind(t, And(
		NewAtom("state", Eq, tuple.Str("WA")), // false: should short-circuit
		NewAtom("id", Eq, tuple.Int64(1)),
	))
	if c.Eval(sampleRow()) {
		t.Error("Eval = true")
	}
	c2 := mustBind(t, And(
		NewAtom("state", Eq, tuple.Str("CA")),
		NewAtom("id", Eq, tuple.Int64(1)),
	))
	if !c2.Eval(sampleRow()) {
		t.Error("Eval = false")
	}
	if !(Conjunction{}).Eval(sampleRow()) {
		t.Error("empty conjunction is not TRUE")
	}
}

func TestIsPrefixOf(t *testing.T) {
	a1 := NewAtom("shipdate", Eq, tuple.Date(13665))
	a2 := NewAtom("state", Eq, tuple.Str("CA"))
	full := And(a1, a2)
	if !And(a1).IsPrefixOf(full) {
		t.Error("single-atom prefix not detected")
	}
	if !full.IsPrefixOf(full) {
		t.Error("self prefix not detected")
	}
	if And(a2).IsPrefixOf(full) {
		t.Error("non-prefix reported as prefix")
	}
	if full.IsPrefixOf(And(a1)) {
		t.Error("longer conjunction reported as prefix")
	}
	if !(Conjunction{}).IsPrefixOf(full) {
		t.Error("empty conjunction should be a prefix of everything")
	}
}

func TestCanonicalKeyOrderInsensitive(t *testing.T) {
	a1 := NewAtom("shipdate", Eq, tuple.Date(13665))
	a2 := NewAtom("state", Eq, tuple.Str("CA"))
	k1 := And(a1, a2).CanonicalKey("Sales")
	k2 := And(a2, a1).CanonicalKey("sales")
	if k1 != k2 {
		t.Errorf("canonical keys differ:\n%s\n%s", k1, k2)
	}
	k3 := And(a1).CanonicalKey("sales")
	if k1 == k3 {
		t.Error("different predicates share a canonical key")
	}
}

func TestColumnsAndSubset(t *testing.T) {
	c := And(
		NewAtom("state", Eq, tuple.Str("CA")),
		NewAtom("id", Lt, tuple.Int64(5)),
		NewAtom("State", Ne, tuple.Str("WA")),
	)
	cols := c.Columns()
	if len(cols) != 2 || cols[0] != "state" || cols[1] != "id" {
		t.Errorf("Columns = %v", cols)
	}
	sub := c.Subset(1)
	if len(sub.Atoms) != 1 || sub.Atoms[0].Col != "id" {
		t.Errorf("Subset = %v", sub)
	}
}

func TestStringRendering(t *testing.T) {
	c := And(
		NewAtom("shipdate", Eq, tuple.Date(13665)),
		NewBetween("id", tuple.Int64(1), tuple.Int64(9)),
		NewIn("state", tuple.Str("CA"), tuple.Str("WA")),
	)
	got := c.String()
	want := `shipdate = 2007-06-01 AND id BETWEEN 1 AND 9 AND state IN ("CA", "WA")`
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if (Conjunction{}).String() != "TRUE" {
		t.Error("empty conjunction String != TRUE")
	}
}
