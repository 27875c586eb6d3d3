package expr

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pagefeedback/internal/tuple"
)

// rawFuzzSchemas are the layouts FuzzEvalRaw covers: all fixed-width, and a
// VARCHAR first, in the middle (with a second one further on, so an atom can
// sit behind two length prefixes), and last.
var rawFuzzSchemas = func() []*tuple.Schema {
	col := func(name string, k tuple.Kind) tuple.Column { return tuple.Column{Name: name, Kind: k} }
	a, b, d := col("a", tuple.KindInt), col("b", tuple.KindInt), col("d", tuple.KindDate)
	s, u := col("s", tuple.KindString), col("u", tuple.KindString)
	return []*tuple.Schema{
		tuple.NewSchema(a, b, d),
		tuple.NewSchema(s, a, b, d),
		tuple.NewSchema(a, s, b, u, d),
		tuple.NewSchema(a, b, d, s),
	}
}()

// FuzzEvalRaw drives RawCompiled with randomized predicates over fixed- and
// variable-width schemas, using tuple.Decode + Conjunction.Eval as the
// oracle. For every cell Decode accepts, judging the encoded bytes must agree
// exactly with judging the decoded values — Eval and FirstFail both; a raw
// disagreement would silently drop or resurrect rows, or skew a prefix
// monitor. For every cell Decode rejects (truncated, over-long, or with a
// length prefix that lies), the raw evaluator must accept it unexamined, so
// the scan hands it to the decoder and the corruption is reported.
func FuzzEvalRaw(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), uint8(0))
	f.Add(int64(7), uint8(64), uint8(4), uint8(1))
	f.Add(int64(42), uint8(1), uint8(1), uint8(2))
	f.Add(int64(-3), uint8(32), uint8(3), uint8(3))

	f.Fuzz(func(t *testing.T, seed int64, nRows, nAtoms, layout uint8) {
		rng := rand.New(rand.NewSource(seed))
		schema := rawFuzzSchemas[int(layout)%len(rawFuzzSchemas)]
		strs := []string{"", "a", "ab", "b", "ba", "\x00", "\xff"}
		val := func(k tuple.Kind) tuple.Value {
			switch k {
			case tuple.KindString:
				return tuple.Str(strs[rng.Intn(len(strs))])
			case tuple.KindDate:
				return tuple.Date(rng.Int63n(7))
			default:
				return tuple.Int64(rng.Int63n(7) - 3)
			}
		}
		rows := make([]tuple.Row, int(nRows)%65)
		for i := range rows {
			rows[i] = make(tuple.Row, schema.NumColumns())
			for c := range rows[i] {
				rows[i][c] = val(schema.Column(c).Kind)
			}
		}

		atoms := make([]Atom, 1+int(nAtoms)%5)
		for i := range atoms {
			col := schema.Column(rng.Intn(schema.NumColumns()))
			var a Atom
			switch rng.Intn(8) {
			case 6:
				a = NewBetween(col.Name, val(col.Kind), val(col.Kind))
			case 7:
				list := make([]tuple.Value, rng.Intn(12))
				for j := range list {
					list[j] = val(col.Kind)
				}
				a = NewIn(col.Name, list...)
			default:
				a = NewAtom(col.Name, CmpOp(rng.Intn(6)), val(col.Kind))
			}
			bound, err := a.Bind(schema)
			if err != nil {
				t.Fatalf("Bind(%s): %v", a, err)
			}
			atoms[i] = bound
		}
		pred := And(atoms...)
		rc := CompileRaw(pred, schema)
		if !rc.OK() {
			t.Fatalf("kind-consistent conjunction did not raw-compile: %s", pred)
		}

		check := func(cell []byte, what string) {
			t.Helper()
			row, err := tuple.Decode(schema, cell)
			want := -1 // a cell Decode rejects must be accepted unexamined
			if err == nil {
				want = pred.FirstFail(row)
			}
			if got := rc.FirstFail(cell); got != want {
				t.Fatalf("%s cell %x: raw FirstFail = %d, want %d (decode err %v, pred %s, schema %s)",
					what, cell, got, want, err, pred, schema)
			}
			if got := rc.Eval(cell); got != (want == -1) {
				t.Fatalf("%s cell %x: raw Eval = %v, want %v (pred %s)", what, cell, got, want == -1, pred)
			}
		}

		var enc, bad []byte
		for _, row := range rows {
			var err error
			enc, err = tuple.Encode(enc[:0], schema, row)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			check(enc, "intact")
			if len(enc) > 0 {
				check(enc[:rng.Intn(len(enc))], "truncated")
			}
			bad = append(append(bad[:0], enc...), make([]byte, 1+rng.Intn(9))...)
			check(bad, "over-long")
			// Overwrite four bytes somewhere with a small or a huge number:
			// when they are a string's length prefix, the prefix now lies.
			if len(enc) >= 4 {
				bad = append(bad[:0], enc...)
				n := uint32(rng.Intn(6))
				if rng.Intn(2) == 0 {
					n = 0xFFFFFFF0 + uint32(rng.Intn(16))
				}
				binary.LittleEndian.PutUint32(bad[rng.Intn(len(bad)-3):], n)
				check(bad, "bad-length-prefix")
			}
		}
	})
}

// TestCompileRawNoEncodedForm pins down that no bound atom lacks an encoded
// form: Bind rejects every atom that compares a column with a constant of
// another kind, an unbound atom still does not compile, and the empty
// conjunction compiles to always-true.
func TestCompileRawNoEncodedForm(t *testing.T) {
	schema := rawFuzzSchemas[3] // a, b, d, s
	for _, a := range []Atom{
		NewAtom("a", Eq, tuple.Str("x")),
		NewAtom("s", Lt, tuple.Int64(1)),
		NewBetween("s", tuple.Str("a"), tuple.Int64(3)),
		NewIn("a", tuple.Int64(1), tuple.Str("x")),
		NewIn("s", tuple.Str("x"), tuple.Int64(1)),
	} {
		if b, err := a.Bind(schema); err == nil {
			t.Errorf("%s: bound as %v, want a kind error", a, b)
		}
	}
	if CompileRaw(And(NewAtom("a", Eq, tuple.Int64(1))), schema).OK() {
		t.Error("unbound atom compiled, want no encoded form")
	}
	rc := CompileRaw(And(), schema)
	if !rc.OK() || rc.Len() != 0 {
		t.Fatalf("empty conjunction: OK=%v Len=%d, want the always-true evaluator", rc.OK(), rc.Len())
	}
	enc, err := tuple.Encode(nil, schema, tuple.Row{tuple.Int64(1), tuple.Int64(2), tuple.Date(3), tuple.Str("pad")})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Eval(enc) || rc.FirstFail(enc) != -1 {
		t.Error("empty conjunction rejected a row")
	}
}

// TestRawStringAtomsDoNotAllocate guards the in-place string comparison: a
// conversion the compiler failed to elide would put one allocation per row
// back into every scan with a VARCHAR predicate.
func TestRawStringAtomsDoNotAllocate(t *testing.T) {
	schema := rawFuzzSchemas[2] // a, s, b, u, d
	pred, err := And(
		NewAtom("u", Ge, tuple.Str("a")),
		NewBetween("s", tuple.Str("a"), tuple.Str("zz")),
		NewIn("u", tuple.Str("q"), tuple.Str("padding-padding-padding-padding-padding")),
		NewAtom("d", Ge, tuple.Date(0)),
	).Bind(schema)
	if err != nil {
		t.Fatal(err)
	}
	rc := CompileRaw(pred, schema)
	enc, err := tuple.Encode(nil, schema, tuple.Row{tuple.Int64(1), tuple.Str("mm"), tuple.Int64(2),
		tuple.Str("padding-padding-padding-padding-padding"), tuple.Date(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Eval(enc) {
		t.Fatal("row should pass")
	}
	if n := testing.AllocsPerRun(100, func() { rc.FirstFail(enc) }); n != 0 {
		t.Errorf("FirstFail allocates %.0f times per row", n)
	}
}
