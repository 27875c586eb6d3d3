package tuple

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindString},
		Column{Name: "shipdate", Kind: KindDate},
	)
}

func TestSchemaOrdinals(t *testing.T) {
	s := testSchema()
	if n := s.NumColumns(); n != 3 {
		t.Fatalf("NumColumns = %d, want 3", n)
	}
	i, ok := s.Ordinal("NAME")
	if !ok || i != 1 {
		t.Errorf("Ordinal(NAME) = %d,%v, want 1,true", i, ok)
	}
	if _, ok := s.Ordinal("missing"); ok {
		t.Error("Ordinal(missing) reported present")
	}
	if got := s.MustOrdinal("shipdate"); got != 2 {
		t.Errorf("MustOrdinal(shipdate) = %d, want 2", got)
	}
}

// A column has a FixedOffset exactly when no string column comes before it.
func TestSchemaFixedOffset(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "d", Kind: KindDate},
		Column{Name: "s", Kind: KindString},
		Column{Name: "b", Kind: KindInt},
	)
	for ord, want := range []int{0, 8, 16, -1} {
		off, ok := s.FixedOffset(ord)
		if ok != (want >= 0) || ok && off != want {
			t.Errorf("FixedOffset(%d) = %d,%v, want %d", ord, off, ok, want)
		}
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSchema with duplicate names did not panic")
		}
	}()
	NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "A", Kind: KindString})
}

func TestSchemaString(t *testing.T) {
	got := testSchema().String()
	want := "(id INT, name VARCHAR, shipdate DATE)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int64(1), Int64(2), -1},
		{Int64(2), Int64(2), 0},
		{Int64(3), Int64(2), 1},
		{Int64(-5), Int64(5), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Str("ba"), Str("b"), 1},
		{Date(10), Date(20), -1},
		{Date(10), Int64(10), 0}, // dates and ints compare numerically
	}
	for _, c := range cases {
		got := c.a.Compare(c.b)
		if sign(got) != c.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
		if c.a.Equal(c.b) != (c.want == 0) {
			t.Errorf("Equal(%v, %v) inconsistent with Compare", c.a, c.b)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestValueCompareKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("comparing INT with VARCHAR did not panic")
		}
	}()
	Int64(1).Compare(Str("x"))
}

func TestValueString(t *testing.T) {
	if got := Int64(42).String(); got != "42" {
		t.Errorf("Int64 String = %q", got)
	}
	if got := Str("hi").String(); got != `"hi"` {
		t.Errorf("Str String = %q", got)
	}
	d := DateFromTime(time.Date(2007, 6, 1, 12, 0, 0, 0, time.UTC))
	if got := d.String(); got != "2007-06-01" {
		t.Errorf("Date String = %q", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema()
	row := Row{Int64(7), Str("widget"), Date(13665)}
	b, err := Encode(nil, s, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(s, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !got[i].Equal(row[i]) {
			t.Errorf("column %d: got %v want %v", i, got[i], row[i])
		}
	}
	if got[2].Kind != KindDate {
		t.Errorf("decoded kind = %v, want DATE", got[2].Kind)
	}
}

func TestEncodeErrors(t *testing.T) {
	s := testSchema()
	if _, err := Encode(nil, s, Row{Int64(1)}); err == nil {
		t.Error("short row encoded without error")
	}
	if _, err := Encode(nil, s, Row{Str("x"), Str("y"), Date(1)}); err == nil {
		t.Error("kind mismatch encoded without error")
	}
}

func TestDecodeErrors(t *testing.T) {
	s := testSchema()
	row := Row{Int64(7), Str("widget"), Date(13665)}
	b, err := Encode(nil, s, row)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut += 3 {
		if _, err := Decode(s, b[:cut]); err == nil {
			t.Errorf("truncated row (%d bytes) decoded without error", cut)
		}
	}
	if _, err := Decode(s, append(b, 0x00)); err == nil {
		t.Error("trailing byte decoded without error")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	s := testSchema()
	f := func(id int64, name string, date int32) bool {
		row := Row{Int64(id), Str(name), Date(int64(date))}
		b, err := Encode(nil, s, row)
		if err != nil {
			return false
		}
		got, err := Decode(s, b)
		if err != nil {
			return false
		}
		return got[0].Int == id && got[1].Str == name && got[2].Int == int64(date)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyCodecOrderPreservingInts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []int64{math.MinInt64, -1 << 40, -1, 0, 1, 1 << 40, math.MaxInt64}
	for i := 0; i < 200; i++ {
		vals = append(vals, rng.Int63()-rng.Int63())
	}
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := EncodeKey(Int64(a)), EncodeKey(Int64(b))
			if sign(bytes.Compare(ka, kb)) != sign(Int64(a).Compare(Int64(b))) {
				t.Fatalf("key order broken for %d vs %d", a, b)
			}
		}
	}
}

func TestKeyCodecOrderPreservingStrings(t *testing.T) {
	vals := []string{"", "a", "ab", "b", "a\x00", "a\x00b", "a\x01", "\x00", "\x00\x00", "zzz"}
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := EncodeKey(Str(a)), EncodeKey(Str(b))
			if sign(bytes.Compare(ka, kb)) != sign(Str(a).Compare(Str(b))) {
				t.Fatalf("key order broken for %q vs %q", a, b)
			}
		}
	}
}

func TestKeyCodecCompositeOrder(t *testing.T) {
	// Composite (string, int) keys must order by first value, then second.
	a := EncodeKey(Str("CA"), Int64(5))
	b := EncodeKey(Str("CA"), Int64(6))
	c := EncodeKey(Str("WA"), Int64(0))
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Errorf("composite key ordering broken: %x %x %x", a, b, c)
	}
}

func TestKeyCodecRoundTrip(t *testing.T) {
	in := []Value{Int64(-42), Str("hello\x00world"), Int64(7), Str("")}
	out, err := DecodeKey(EncodeKey(in...))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d values, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i].Kind == KindString {
			if out[i].Str != in[i].Str {
				t.Errorf("value %d: got %v want %v", i, out[i], in[i])
			}
		} else if out[i].Int != in[i].Int {
			t.Errorf("value %d: got %v want %v", i, out[i], in[i])
		}
	}
}

// TestKeySize: KeySize is the length AppendKey would write, for every kind,
// the extremes of the integer range, empty strings and strings of 0x00 bytes.
func TestKeySize(t *testing.T) {
	vals := []Value{
		Int64(0), Int64(-1), Int64(math.MaxInt64), Int64(math.MinInt64), Date(0), Date(-19000),
		Str(""), Str("a"), Str("\x00"), Str("\x00\x00"), Str("a\x00b\x00"), Str("\xff\x00\xff"),
	}
	for _, v := range vals {
		if got, want := KeySize(v), len(AppendKey(nil, v)); got != want {
			t.Errorf("KeySize(%v) = %d, AppendKey writes %d bytes", v, got, want)
		}
	}
}

func TestKeyCodecQuick(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		ka := EncodeKey(Int64(a), Str(s1))
		kb := EncodeKey(Int64(b), Str(s2))
		wantCmp := Int64(a).Compare(Int64(b))
		if wantCmp == 0 {
			wantCmp = Str(s1).Compare(Str(s2))
		}
		return sign(bytes.Compare(ka, kb)) == sign(wantCmp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	bad := [][]byte{
		{0x05},             // unknown tag
		{0x01, 0x00},       // truncated int
		{0x02, 'a'},        // unterminated string
		{0x02, 0x00},       // truncated escape
		{0x02, 0x00, 0x7F}, // invalid escape
	}
	for _, b := range bad {
		if _, err := DecodeKey(b); err == nil {
			t.Errorf("DecodeKey(%x) succeeded, want error", b)
		}
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int64(1), Str("x")}
	c := r.Clone()
	c[0] = Int64(99)
	if r[0].Int != 1 {
		t.Error("Clone did not copy")
	}
	if got := r.String(); got != `(1, "x")` {
		t.Errorf("Row.String = %q", got)
	}
}

// TestDecodeAppendColsPrunedStringsDoNotAllocate: a row whose wanted columns
// are all fixed-width decodes into spare capacity with no allocation, the
// pruned VARCHAR written as an empty string.
func TestDecodeAppendColsPrunedStringsDoNotAllocate(t *testing.T) {
	s := NewSchema(Column{"a", KindInt}, Column{"pad", KindString}, Column{"d", KindDate})
	enc, err := Encode(nil, s, Row{Int64(5), Str("padding-padding"), Date(9)})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Value, 0, 3)
	var got []Value
	if n := testing.AllocsPerRun(100, func() {
		if got, err = DecodeAppendCols(dst[:0], s, enc, 1|1<<2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeAppendCols allocates %v times with the string pruned", n)
	}
	if want := []Value{Int64(5), {Kind: KindString}, Date(9)}; !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %v, want %v", got, want)
	}
	if s.CountColumns(1|1<<2) != 2 || s.CountColumns(AllColumns) != 3 {
		t.Errorf("CountColumns = %d, %d; want 2, 3", s.CountColumns(1|1<<2), s.CountColumns(AllColumns))
	}
}
