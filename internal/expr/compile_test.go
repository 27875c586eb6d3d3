package expr

import (
	"fmt"
	"testing"

	"pagefeedback/internal/tuple"
)

func compileSchema(t *testing.T) *tuple.Schema {
	t.Helper()
	return tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt},
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "d", Kind: tuple.KindDate},
	)
}

// TestCompiledMatchesEval checks the compiled evaluator against the generic
// one — Eval and FirstFail — across every operator and kind combination on a
// grid of rows.
func TestCompiledMatchesEval(t *testing.T) {
	schema := compileSchema(t)
	atoms := []Atom{
		NewAtom("a", Eq, tuple.Int64(5)),
		NewAtom("a", Ne, tuple.Int64(5)),
		NewAtom("a", Lt, tuple.Int64(5)),
		NewAtom("a", Le, tuple.Int64(5)),
		NewAtom("a", Gt, tuple.Int64(5)),
		NewAtom("a", Ge, tuple.Int64(5)),
		NewBetween("a", tuple.Int64(3), tuple.Int64(7)),
		NewIn("a", tuple.Int64(1), tuple.Int64(5), tuple.Int64(9)),
		NewIn("a", tuple.Int64(0), tuple.Int64(1), tuple.Int64(2), tuple.Int64(3),
			tuple.Int64(4), tuple.Int64(5), tuple.Int64(6), tuple.Int64(7),
			tuple.Int64(8), tuple.Int64(9)), // >8 elements: hash-set path
		NewAtom("s", Eq, tuple.Str("mm")),
		NewAtom("s", Lt, tuple.Str("mm")),
		NewAtom("s", Ge, tuple.Str("mm")),
		NewBetween("s", tuple.Str("bb"), tuple.Str("pp")),
		NewIn("s", tuple.Str("aa"), tuple.Str("mm")),
		NewAtom("d", Le, tuple.Date(10)),
		NewBetween("d", tuple.Date(4), tuple.Date(12)),
	}
	var rows []tuple.Row
	for i := int64(0); i < 12; i++ {
		rows = append(rows, tuple.Row{
			tuple.Int64(i),
			tuple.Str(fmt.Sprintf("%c%c", 'a'+i, 'a'+i)),
			tuple.Date(i),
		})
	}

	// Per-atom equivalence.
	for _, a := range atoms {
		bound, err := a.Bind(schema)
		if err != nil {
			t.Fatal(err)
		}
		cc := Compile(And(bound))
		if !cc.OK() {
			t.Fatalf("atom %s did not compile", a)
		}
		for _, row := range rows {
			if got, want := cc.Eval(row), bound.Eval(row); got != want {
				t.Errorf("%s on %v: compiled=%v generic=%v", a, row, got, want)
			}
		}
	}

	// Conjunction equivalence, including FirstFail against the reference
	// first-failing-atom loop.
	conj, err := And(
		NewAtom("a", Ge, tuple.Int64(2)),
		NewAtom("s", Lt, tuple.Str("kk")),
		NewBetween("d", tuple.Date(1), tuple.Date(9)),
	).Bind(schema)
	if err != nil {
		t.Fatal(err)
	}
	cc := Compile(conj)
	if !cc.OK() || cc.Len() != 3 {
		t.Fatalf("conjunction did not compile: ok=%v len=%d", cc.OK(), cc.Len())
	}
	for _, row := range rows {
		if got, want := cc.Eval(row), conj.Eval(row); got != want {
			t.Errorf("Eval(%v): compiled=%v generic=%v", row, got, want)
		}
		wantFail := -1
		for i := range conj.Atoms {
			if !conj.Atoms[i].Eval(row) {
				wantFail = i
				break
			}
		}
		if got := cc.FirstFail(row); got != wantFail {
			t.Errorf("FirstFail(%v): compiled=%d reference=%d", row, got, wantFail)
		}
	}
}

// TestCompileRefusals: empty and unbound predicates must not compile, and an
// empty IN list always rejects.
func TestCompileRefusals(t *testing.T) {
	if cc := Compile(Conjunction{}); cc.OK() {
		t.Error("empty conjunction compiled; want fallback")
	}
	if cc := Compile(And(NewAtom("a", Eq, tuple.Int64(1)))); cc.OK() {
		t.Error("unbound atom compiled; want fallback")
	}
	schema := compileSchema(t)
	emptyIn, err := And(Atom{Col: "a", Op: In}).Bind(schema)
	if err != nil {
		t.Fatal(err)
	}
	cc := Compile(emptyIn)
	if !cc.OK() {
		t.Fatal("empty IN did not compile")
	}
	if cc.Eval(tuple.Row{tuple.Int64(1), tuple.Str("x"), tuple.Date(0)}) {
		t.Error("empty IN accepted a row")
	}
}

// TestBindChecksKinds walks every column kind × constant kind × operator,
// BETWEEN bounds and IN lists included: Bind fails exactly when a constant's
// kind differs from the column's (INT and DATE are interchangeable), and
// whatever it binds has both compiled forms.
func TestBindChecksKinds(t *testing.T) {
	kinds := []tuple.Kind{tuple.KindInt, tuple.KindString, tuple.KindDate}
	constant := map[tuple.Kind]tuple.Value{
		tuple.KindInt: tuple.Int64(3), tuple.KindString: tuple.Str("m"), tuple.KindDate: tuple.Date(3),
	}
	numeric := func(k tuple.Kind) bool { return k != tuple.KindString }
	compatible := func(col tuple.Kind, vals ...tuple.Value) bool {
		for _, v := range vals {
			if numeric(col) != numeric(v.Kind) {
				return false
			}
		}
		return true
	}
	for _, col := range kinds {
		schema := tuple.NewSchema(tuple.Column{Name: "c", Kind: col}, tuple.Column{Name: "s", Kind: tuple.KindString})
		var cases [][]tuple.Value // constants per atom: one, a BETWEEN pair, or an IN list
		for _, k := range kinds {
			cases = append(cases, []tuple.Value{constant[k]})
			for _, k2 := range kinds {
				cases = append(cases, []tuple.Value{constant[k], constant[k2]})
			}
		}
		for _, vals := range cases {
			var atoms []Atom
			if len(vals) == 1 {
				for op := Eq; op <= Ge; op++ {
					atoms = append(atoms, NewAtom("c", op, vals[0]))
				}
				atoms = append(atoms, NewIn("c", vals[0]))
			} else {
				atoms = append(atoms, NewBetween("c", vals[0], vals[1]), NewIn("c", vals...))
			}
			for _, a := range atoms {
				b, err := a.Bind(schema)
				if want := compatible(col, vals...); (err == nil) != want {
					t.Errorf("%s on a %s column: Bind error %v, want compatible=%v", a, col, err, want)
				}
				if err != nil {
					continue
				}
				if !Compile(And(b)).OK() || !CompileRaw(And(b), schema).OK() {
					t.Errorf("%s on a %s column: bound but Compile OK=%v CompileRaw OK=%v",
						a, col, Compile(And(b)).OK(), CompileRaw(And(b), schema).OK())
				}
			}
		}
	}
}
