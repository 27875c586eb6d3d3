package exec

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/tuple"
)

// monitorCellLayouts are the row layouts FuzzMonitorCell covers: all
// fixed-width, and a VARCHAR first, in the middle (with a second one further
// on), and last.
var monitorCellLayouts = func() []*tuple.Schema {
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

// FuzzMonitorCell holds the sampled monitors' in-place judgement to the
// decoded one they replaced: on every layout, for every cell the decoder
// accepts, a DPSample monitor judging the encoded cell agrees with
// Conjunction.Eval on the decoded row, and a join bit-vector monitor reading
// its key in place agrees with MayContain(row[ord]). Cells the decoder
// rejects — truncated, over-long, a length prefix that lies — must not panic
// either monitor; the scan's decoder reports them.
func FuzzMonitorCell(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), uint8(0))
	f.Add(int64(7), uint8(64), uint8(4), uint8(1))
	f.Add(int64(42), uint8(1), uint8(1), uint8(2))
	f.Add(int64(-3), uint8(32), uint8(3), uint8(3))

	f.Fuzz(func(t *testing.T, seed int64, nRows, nAtoms, layout uint8) {
		rng := rand.New(rand.NewSource(seed))
		schema := monitorCellLayouts[int(layout)%len(monitorCellLayouts)]
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

		atoms := make([]expr.Atom, 1+int(nAtoms)%4)
		for i := range atoms {
			col := schema.Column(rng.Intn(schema.NumColumns()))
			a := expr.NewAtom(col.Name, expr.CmpOp(rng.Intn(6)), val(col.Kind))
			if rng.Intn(4) == 0 {
				a = expr.NewIn(col.Name, val(col.Kind), val(col.Kind), val(col.Kind))
			}
			bound, err := a.Bind(schema)
			if err != nil {
				t.Fatalf("Bind(%s): %v", a, err)
			}
			atoms[i] = bound
		}
		sampled := &scanMonitor{kind: monSampled, pred: expr.And(atoms...)}
		sampled.setSchema(schema)
		if !sampled.raw.OK() {
			t.Fatalf("kind-consistent predicate %s has no encoded form", sampled.pred)
		}
		ord := rng.Intn(schema.NumColumns())
		bv := core.NewBitVectorFilter(64 + uint64(rng.Intn(200)))
		for i := 0; i < 3; i++ {
			bv.Add(val(schema.Column(ord).Kind))
		}
		join := &scanMonitor{kind: monJoinFilter, filter: bv, joinColOrd: ord}
		join.setSchema(schema)

		judged := func(m *scanMonitor, cell []byte) bool {
			m.rows = 0
			m.judgeCell(cell)
			return m.rows == 1
		}
		check := func(cell []byte, what string) {
			t.Helper()
			s, j := judged(sampled, cell), judged(join, cell)
			row, err := tuple.Decode(schema, cell)
			if err != nil {
				return // judged without panicking; the decoder fails the scan
			}
			if want := sampled.pred.Eval(row); s != want {
				t.Fatalf("%s cell %x: sampled monitor judged %v, decoded Eval %v (pred %s, schema %s)",
					what, cell, s, want, sampled.pred, schema)
			}
			if want := bv.MayContain(row[ord]); j != want {
				t.Fatalf("%s cell %x: join monitor judged %v, MayContain(%s) %v (ord %d, schema %s)",
					what, cell, j, row[ord], want, ord, schema)
			}
		}

		var enc, bad []byte
		for i := 0; i < int(nRows)%65; i++ {
			row := make(tuple.Row, schema.NumColumns())
			for c := range row {
				row[c] = val(schema.Column(c).Kind)
			}
			var err error
			if enc, err = tuple.Encode(enc[:0], schema, row); err != nil {
				t.Fatalf("Encode: %v", err)
			}
			check(enc, "intact")
			check(enc[:rng.Intn(len(enc))], "truncated")
			bad = append(append(bad[:0], enc...), make([]byte, 1+rng.Intn(9))...)
			check(bad, "over-long")
			// Overwrite four bytes with a small or a huge number: where they
			// are a string's length prefix, the prefix now lies.
			bad = append(bad[:0], enc...)
			n := uint32(rng.Intn(6))
			if rng.Intn(2) == 0 {
				n = 0xFFFFFFF0 + uint32(rng.Intn(16))
			}
			binary.LittleEndian.PutUint32(bad[rng.Intn(len(bad)-3):], n)
			check(bad, "bad-length-prefix")
		}
	})
}
