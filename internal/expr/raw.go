package expr

import (
	"encoding/binary"

	"pagefeedback/internal/tuple"
)

// Raw predicate evaluation: a predicate is judged against the bytes of an
// encoded row as they sit on the page, before any value is decoded. Every
// fixed-width column that precedes the schema's first string column sits at
// a known offset (8 per column); a column after it is reached by walking the
// length prefixes in between — the same walk that establishes the cell is
// well-formed. Scans use this for late materialization: rows the predicate
// rejects are never decoded at all.

// rawAtomFn reports whether one atom accepts the column value that starts at
// byte offset off of a well-formed encoded row.
type rawAtomFn func(enc []byte, off int) bool

// rawAtom is one compiled atom and where its column lives.
type rawAtom struct {
	fn  rawAtomFn
	ord int
	off int // static offset of a fixed-prefix column, -1 = walk to ord
}

// RawCompiled evaluates a bound Conjunction against the encoded bytes of a
// row. The zero value is invalid; obtain one from CompileRaw and check OK.
// Evaluation is equivalent to the decoded evaluators: raw numeric comparison
// agrees with Value comparison on every Int and Date, and byte-wise string
// comparison with Go's string ordering. It is immutable after CompileRaw and
// safe to share across goroutines.
type RawCompiled struct {
	atoms  []rawAtom
	schema *tuple.Schema
}

// OK reports whether the compilation produced a usable evaluator.
func (c RawCompiled) OK() bool { return c.atoms != nil }

// Len returns the number of compiled atoms.
func (c RawCompiled) Len() int { return len(c.atoms) }

// FirstFail returns the index of the first atom the encoded row fails under
// short-circuiting, or -1 when every atom accepts it — the vector prefix
// monitors consume, computed without decoding the row. A cell that is not a
// well-formed row of the schema is accepted unexamined (-1): malformed rows
// must reach the decoder, which reports the corruption — raw evaluation
// never masks it.
func (c RawCompiled) FirstFail(enc []byte) int {
	if !c.WellFormed(enc) {
		return -1
	}
	return c.FirstFailWellFormed(enc)
}

// WellFormed reports whether enc is one well-formed row of the schema c was
// compiled against: the check FirstFail makes before it reads any column.
func (c RawCompiled) WellFormed(enc []byte) bool { return c.schema.WellFormed(enc) }

// FirstFailWellFormed is FirstFail for a cell the caller has already found
// WellFormed, so a page step that reads the cell in place more than once
// walks its length prefixes once. Called on a malformed cell it may index
// past the cell's end and panic.
func (c RawCompiled) FirstFailWellFormed(enc []byte) int {
	for i := range c.atoms {
		a := &c.atoms[i]
		off := a.off
		if off < 0 {
			off = c.schema.ColumnOffset(enc, a.ord)
		}
		if !a.fn(enc, off) {
			return i
		}
	}
	return -1
}

// Eval evaluates the conjunction with short-circuiting; like FirstFail it
// accepts malformed cells unexamined.
func (c RawCompiled) Eval(enc []byte) bool { return c.FirstFail(enc) == -1 }

// CompileRaw specializes every atom of a bound conjunction to read the
// encoded row directly. The empty conjunction compiles to the always-true
// evaluator. It returns a RawCompiled with OK()==false only when an atom is
// unbound, or bound to a column s does not have: every atom Bind accepts
// has an encoded form.
func CompileRaw(c Conjunction, s *tuple.Schema) RawCompiled {
	atoms := make([]rawAtom, len(c.Atoms))
	for i, a := range c.Atoms {
		fn := compileRawAtom(a, s)
		if fn == nil {
			return RawCompiled{}
		}
		atoms[i] = rawAtom{fn: fn, ord: a.ord, off: -1}
		if a.ord < s.FixedPrefix() {
			atoms[i].off = 8 * a.ord
		}
	}
	return RawCompiled{atoms: atoms, schema: s}
}

// rawInt reads the fixed-width column at byte offset off.
func rawInt(enc []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(enc[off:]))
}

// rawStr returns the payload of the string column at byte offset off,
// aliasing enc. Comparing string(rawStr(...)) with a string does not
// allocate: the compiler elides the conversion inside a comparison.
func rawStr(enc []byte, off int) []byte {
	n := int(binary.LittleEndian.Uint32(enc[off:]))
	return enc[off+4 : off+4+n]
}

// compileRawAtom builds the specialized closure for one atom, or nil when
// the atom is unbound or its column is out of s. Bind has checked that every
// constant has the column's kind, so the column's kind selects the reader.
func compileRawAtom(a Atom, s *tuple.Schema) rawAtomFn {
	if !a.bound || a.ord >= s.NumColumns() {
		return nil
	}
	if s.Column(a.ord).Kind == tuple.KindString {
		return compileRawStringAtom(a)
	}
	switch a.Op {
	case Between:
		lo, hi := a.Val.Int, a.Val2.Int
		return func(enc []byte, off int) bool {
			v := rawInt(enc, off)
			return v >= lo && v <= hi
		}
	case In:
		switch {
		case len(a.List) == 0:
			return func([]byte, int) bool { return false }
		case len(a.List) > 8:
			set := make(map[int64]struct{}, len(a.List))
			for _, v := range a.List {
				set[v.Int] = struct{}{}
			}
			return func(enc []byte, off int) bool {
				_, ok := set[rawInt(enc, off)]
				return ok
			}
		}
		vals := make([]int64, len(a.List))
		for i, v := range a.List {
			vals[i] = v.Int
		}
		return func(enc []byte, off int) bool {
			v := rawInt(enc, off)
			for _, c := range vals {
				if v == c {
					return true
				}
			}
			return false
		}
	}
	c := a.Val.Int
	switch a.Op {
	case Eq:
		return func(enc []byte, off int) bool { return rawInt(enc, off) == c }
	case Ne:
		return func(enc []byte, off int) bool { return rawInt(enc, off) != c }
	case Lt:
		return func(enc []byte, off int) bool { return rawInt(enc, off) < c }
	case Le:
		return func(enc []byte, off int) bool { return rawInt(enc, off) <= c }
	case Gt:
		return func(enc []byte, off int) bool { return rawInt(enc, off) > c }
	default:
		return func(enc []byte, off int) bool { return rawInt(enc, off) >= c }
	}
}

// compileRawStringAtom is compileRawAtom for a string column: the payload
// bytes are compared in place against string constants.
func compileRawStringAtom(a Atom) rawAtomFn {
	switch a.Op {
	case Between:
		lo, hi := a.Val.Str, a.Val2.Str
		return func(enc []byte, off int) bool {
			v := rawStr(enc, off)
			return string(v) >= lo && string(v) <= hi
		}
	case In:
		vals := make([]string, len(a.List))
		for i, v := range a.List {
			vals[i] = v.Str
		}
		return func(enc []byte, off int) bool {
			v := rawStr(enc, off)
			for _, c := range vals {
				if string(v) == c {
					return true
				}
			}
			return false
		}
	}
	c := a.Val.Str
	switch a.Op {
	case Eq:
		return func(enc []byte, off int) bool { return string(rawStr(enc, off)) == c }
	case Ne:
		return func(enc []byte, off int) bool { return string(rawStr(enc, off)) != c }
	case Lt:
		return func(enc []byte, off int) bool { return string(rawStr(enc, off)) < c }
	case Le:
		return func(enc []byte, off int) bool { return string(rawStr(enc, off)) <= c }
	case Gt:
		return func(enc []byte, off int) bool { return string(rawStr(enc, off)) > c }
	default:
		return func(enc []byte, off int) bool { return string(rawStr(enc, off)) >= c }
	}
}
