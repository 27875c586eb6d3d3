// Package tuple defines table schemas, typed column values, and the binary
// row format used by the storage engine.
//
// Rows are stored in slotted pages (see internal/storage) as variable-length
// byte strings. The encoding is self-describing given the schema: fixed-width
// integers are encoded little-endian, strings are length-prefixed.
package tuple

import (
	"fmt"
	"strings"
)

// Kind is the type of a column.
type Kind uint8

// Supported column kinds.
const (
	KindInt    Kind = iota // 64-bit signed integer
	KindString             // variable-length UTF-8 string
	KindDate               // days since epoch, stored as int64
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Comparable reports whether values of kinds k and o compare with each
// other, as Value.Compare allows: the same kind, or INT with DATE.
func (k Kind) Comparable(o Kind) bool {
	// Past the same-kind case, both must be one of the kinds up to KindDate
	// that is not KindString: INT or DATE.
	return k == o || k != KindString && o != KindString && k <= KindDate && o <= KindDate
}

// Column describes one column of a table.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. The zero value is an empty schema.
type Schema struct {
	cols   []Column
	byName map[string]int
	// fixedSize is the encoded row size when every column is fixed-width,
	// or -1 when the schema has a string column; it gates the branch-free
	// decode fast path.
	fixedSize int
	// fixedPrefix is the number of columns before the first string column
	// (all of them when there is none). Each sits at byte offset 8*i of
	// every encoded row; later columns are found by the length-prefix walk.
	fixedPrefix int
}

// NewSchema builds a schema from the given columns. Column names must be
// unique (case-insensitive); NewSchema panics otherwise, since schemas are
// always constructed from static catalogs or tests.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{
		cols:   append([]Column(nil), cols...),
		byName: make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			panic("tuple: duplicate column name " + c.Name)
		}
		s.byName[key] = i
		if s.fixedSize >= 0 {
			if c.Kind == KindString {
				s.fixedSize = -1
			} else {
				s.fixedSize += 8
				s.fixedPrefix++
			}
		}
	}
	return s
}

// NumColumns reports the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// FixedOffset returns the byte offset at which column ord starts in every
// encoded row, whatever follows: 8*ord for a column of the leading
// fixed-width prefix or the column right after it. ok is false when the
// offset depends on the lengths of strings before the column.
func (s *Schema) FixedOffset(ord int) (off int, ok bool) {
	if ord <= s.fixedPrefix {
		return 8 * ord, true
	}
	return 0, false
}

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Ordinal returns the position of the named column (case-insensitive) and
// whether it exists.
func (s *Schema) Ordinal(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// MustOrdinal is Ordinal but panics if the column does not exist. It is for
// tests and static wiring where absence is a programming error.
func (s *Schema) MustOrdinal(name string) int {
	i, ok := s.Ordinal(name)
	if !ok {
		panic("tuple: no column " + name)
	}
	return i
}

// Project returns a new schema consisting of the named columns, in order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i, ok := s.Ordinal(n)
		if !ok {
			return nil, fmt.Errorf("tuple: no column %q", n)
		}
		cols = append(cols, s.cols[i])
	}
	return NewSchema(cols...), nil
}

// String renders the schema as "(name KIND, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}
