package tuple

import (
	"bytes"
	"testing"
)

// fuzzSchema derives a schema from a compact descriptor: the low three bits
// give the column count (0–7), then two bits per column select the kind.
// Deriving the schema from fuzz input lets the engine explore row layouts as
// well as payloads.
func fuzzSchema(desc uint32) *Schema {
	n := int(desc & 7)
	cols := make([]Column, n)
	for i := range cols {
		var k Kind
		switch (desc >> (3 + 2*uint(i))) & 3 {
		case 0:
			k = KindInt
		case 1:
			k = KindString
		case 2:
			k = KindDate
		default:
			k = KindInt
		}
		cols[i] = Column{Name: string(rune('a' + i)), Kind: k}
	}
	return NewSchema(cols...)
}

// FuzzTupleDecode checks the row codec on arbitrary bytes: DecodeAppend must
// never panic, must leave a pre-populated destination prefix intact, and —
// because the row encoding is canonical — any accepted input must re-encode
// to exactly the original bytes. WellFormed must accept exactly the inputs
// DecodeAppend accepts, and ColumnOffset must point at each decoded value:
// the two facts in-place readers of encoded cells rely on.
func FuzzTupleDecode(f *testing.F) {
	// Seeds: a valid two-column row, a truncated int, a string whose length
	// prefix overruns the payload, trailing garbage, and an empty row.
	intCol := uint32(1)<<0 | 0<<3           // (a INT)
	mixed := uint32(3) | 0<<3 | 1<<5 | 2<<7 // (a INT, b VARCHAR, c DATE)
	valid, err := Encode(nil, fuzzSchema(mixed), Row{Int64(-42), Str("x\x00y"), Date(19000)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed, valid)
	f.Add(intCol, []byte{1, 2, 3})
	f.Add(uint32(1)|1<<3, []byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(intCol, append(make([]byte, 8), 0xAA))
	f.Add(uint32(0), []byte{})

	f.Fuzz(func(t *testing.T, desc uint32, data []byte) {
		s := fuzzSchema(desc)
		sentinel := []Value{Int64(7), Str("sentinel")}
		got, err := DecodeAppend(append([]Value(nil), sentinel...), s, data)
		if wf := s.WellFormed(data); wf != (err == nil) {
			t.Fatalf("WellFormed = %v but decode error = %v (schema %s, data %x)", wf, err, s, data)
		}
		if err != nil {
			return
		}
		if len(got) != len(sentinel)+s.NumColumns() {
			t.Fatalf("decoded %d values for %d columns", len(got)-len(sentinel), s.NumColumns())
		}
		for i, v := range sentinel {
			if !got[i].Equal(v) {
				t.Fatalf("destination prefix clobbered at %d: %s", i, got[i])
			}
		}
		row := Row(got[len(sentinel):])
		for i, v := range row {
			one, err := Encode(nil, NewSchema(s.Column(i)), Row{v})
			if err != nil {
				t.Fatal(err)
			}
			if off := s.ColumnOffset(data, i); !bytes.HasPrefix(data[off:], one) {
				t.Fatalf("ColumnOffset(%d) = %d does not point at %s in %x", i, off, v, data)
			}
		}
		reencoded, err := Encode(nil, s, row)
		if err != nil {
			t.Fatalf("re-encoding accepted row %s: %v", row, err)
		}
		if !bytes.Equal(reencoded, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, reencoded)
		}
	})
}

// FuzzKeyCodec checks the order-preserving key codec: DecodeKeyAppend must
// never panic and accepted keys must re-encode byte-identically, while
// EncodeKey built from fuzzed values must round-trip and order exactly like
// Value.Compare.
func FuzzKeyCodec(f *testing.F) {
	f.Add(EncodeKey(Int64(-1), Str("a\x00b"), Date(0)), int64(5), int64(-5), "a", "b")
	f.Add(EncodeKey(Str("")), int64(0), int64(0), "", "\x00")
	f.Add([]byte{keyTagInt, 1, 2, 3}, int64(1<<62), int64(-1<<62), "same", "same")
	f.Add([]byte{keyTagString, 0x00, 0xEE}, int64(-1), int64(1), "\x00\xff", "\xff")
	f.Add([]byte{0x7F}, int64(0), int64(1), "a", "ab")

	f.Fuzz(func(t *testing.T, key []byte, i1, i2 int64, s1, s2 string) {
		if vals, err := DecodeKeyAppend(nil, key); err == nil {
			if reencoded := EncodeKey(vals...); !bytes.Equal(reencoded, key) {
				t.Fatalf("key decode/encode not canonical:\n in  %x\n out %x", key, reencoded)
			}
		}

		// Round trip: ints and strings come back exactly; dates come back as
		// KindInt with the same numeric payload (documented on DecodeKey).
		k := EncodeKey(Int64(i1), Str(s1), Date(i2))
		vals, err := DecodeKeyAppend(nil, k)
		if err != nil {
			t.Fatalf("decoding freshly encoded key %x: %v", k, err)
		}
		if len(vals) != 3 || vals[0].Int != i1 || vals[1].Str != s1 || vals[2].Int != i2 {
			t.Fatalf("round trip: encoded (%d, %q, %d), decoded %v", i1, s1, i2, vals)
		}

		// Order preservation: bytes.Compare on encodings agrees with
		// value-wise comparison, for ints and strings alike.
		if got, want := bytes.Compare(EncodeKey(Int64(i1)), EncodeKey(Int64(i2))), Int64(i1).Compare(Int64(i2)); got != want {
			t.Fatalf("int key order: Compare(%d, %d) = %d, encoded order %d", i1, i2, want, got)
		}
		if got, want := bytes.Compare(EncodeKey(Str(s1)), EncodeKey(Str(s2))), Str(s1).Compare(Str(s2)); got != want {
			t.Fatalf("string key order: Compare(%q, %q) = %d, encoded order %d", s1, s2, want, got)
		}
	})
}
