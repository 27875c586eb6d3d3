// Package expr defines the predicate language of the engine: atomic
// comparisons on one table's columns and ordered conjunctions of them.
//
// Conjunctions evaluate left to right with short-circuiting, like a real
// predicate evaluator. Binding checks every constant against its column's
// kind, so a bound conjunction always has both compiled forms: Compile for
// decoded rows and CompileRaw for encoded cells, which scans, fetches and
// the DPC monitors judge on the page. Conjunction.Eval is the generic
// evaluator those compiled forms are tested against.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"pagefeedback/internal/tuple"
)

// CmpOp is a comparison operator.
type CmpOp uint8

// Supported operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
	Between // Val <= col <= Val2
	In      // col in List
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Between:
		return "BETWEEN"
	case In:
		return "IN"
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Atom is one atomic predicate: column <op> constant(s). Atoms must be bound
// to a schema before evaluation.
type Atom struct {
	Col  string
	Op   CmpOp
	Val  tuple.Value
	Val2 tuple.Value   // upper bound for Between
	List []tuple.Value // values for In

	ord   int
	bound bool
}

// NewAtom constructs an unbound atomic predicate.
func NewAtom(col string, op CmpOp, val tuple.Value) Atom {
	return Atom{Col: col, Op: op, Val: val}
}

// NewBetween constructs an inclusive range predicate lo <= col <= hi.
func NewBetween(col string, lo, hi tuple.Value) Atom {
	return Atom{Col: col, Op: Between, Val: lo, Val2: hi}
}

// NewIn constructs a membership predicate.
func NewIn(col string, vals ...tuple.Value) Atom {
	return Atom{Col: col, Op: In, List: vals}
}

// Bind resolves the atom's column against schema and checks that every
// constant has the column's kind (INT and DATE are interchangeable, as in
// Value.Compare). It returns a bound copy. Bind is the only way to bind an
// atom, so every bound atom has both compiled forms.
func (a Atom) Bind(schema *tuple.Schema) (Atom, error) {
	ord, ok := schema.Ordinal(a.Col)
	if !ok {
		return Atom{}, fmt.Errorf("expr: no column %q in schema %s", a.Col, schema)
	}
	kind := schema.Column(ord).Kind
	same := true
	switch a.Op {
	case Eq, Ne, Lt, Le, Gt, Ge:
		same = kind.Comparable(a.Val.Kind)
	case Between:
		same = kind.Comparable(a.Val.Kind) && kind.Comparable(a.Val2.Kind)
	case In:
		for _, v := range a.List {
			same = same && kind.Comparable(v.Kind)
		}
	default:
		return Atom{}, fmt.Errorf("expr: bad operator %v in %s", a.Op, a)
	}
	if !same {
		return Atom{}, fmt.Errorf("expr: %s compares %s column %q with a constant of another kind", a, kind, a.Col)
	}
	a.ord = ord
	a.bound = true
	return a, nil
}

// Ordinal returns the bound column position. It panics if unbound.
func (a Atom) Ordinal() int {
	if !a.bound {
		panic("expr: Ordinal on unbound atom " + a.String())
	}
	return a.ord
}

// Bound reports whether the atom has been bound to a schema.
func (a Atom) Bound() bool { return a.bound }

// Eval evaluates the atom against a row of the bound schema.
func (a Atom) Eval(row tuple.Row) bool {
	if !a.bound {
		panic("expr: Eval on unbound atom " + a.String())
	}
	v := row[a.ord]
	switch a.Op {
	case Eq:
		return v.Compare(a.Val) == 0
	case Ne:
		return v.Compare(a.Val) != 0
	case Lt:
		return v.Compare(a.Val) < 0
	case Le:
		return v.Compare(a.Val) <= 0
	case Gt:
		return v.Compare(a.Val) > 0
	case Ge:
		return v.Compare(a.Val) >= 0
	case Between:
		return v.Compare(a.Val) >= 0 && v.Compare(a.Val2) <= 0
	case In:
		for _, lv := range a.List {
			if v.Compare(lv) == 0 {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("expr: bad operator %v", a.Op))
	}
}

// String renders the atom in SQL-ish syntax.
func (a Atom) String() string {
	switch a.Op {
	case Between:
		return fmt.Sprintf("%s BETWEEN %s AND %s", a.Col, a.Val, a.Val2)
	case In:
		parts := make([]string, len(a.List))
		for i, v := range a.List {
			parts[i] = v.String()
		}
		return fmt.Sprintf("%s IN (%s)", a.Col, strings.Join(parts, ", "))
	default:
		return fmt.Sprintf("%s %s %s", a.Col, a.Op, a.Val)
	}
}

// Conjunction is an ordered AND of atoms. The zero value is the always-true
// predicate.
type Conjunction struct {
	Atoms []Atom
}

// And builds a conjunction from atoms (in evaluation order).
func And(atoms ...Atom) Conjunction { return Conjunction{Atoms: atoms} }

// Bind resolves every atom against schema.
func (c Conjunction) Bind(schema *tuple.Schema) (Conjunction, error) {
	out := Conjunction{Atoms: make([]Atom, len(c.Atoms))}
	for i, a := range c.Atoms {
		b, err := a.Bind(schema)
		if err != nil {
			return Conjunction{}, err
		}
		out.Atoms[i] = b
	}
	return out, nil
}

// Eval evaluates with short-circuiting: atoms after the first false one are
// not evaluated, exactly like a production predicate evaluator.
func (c Conjunction) Eval(row tuple.Row) bool {
	for _, a := range c.Atoms {
		if !a.Eval(row) {
			return false
		}
	}
	return true
}

// FirstFail returns the index of the first atom the row fails under
// short-circuiting, or -1 when every atom accepts it — the generic form of
// Compiled.FirstFail and RawCompiled.FirstFail, and their oracle in tests.
func (c Conjunction) FirstFail(row tuple.Row) int {
	for i := range c.Atoms {
		if !c.Atoms[i].Eval(row) {
			return i
		}
	}
	return -1
}

// IsPrefixOf reports whether c's atoms are exactly the first len(c.Atoms)
// atoms of other (compared structurally, ignoring binding). Per §III-B,
// page counts for a prefix of the evaluated predicate never require turning
// off short-circuiting.
func (c Conjunction) IsPrefixOf(other Conjunction) bool {
	if len(c.Atoms) > len(other.Atoms) {
		return false
	}
	for i, a := range c.Atoms {
		if !a.sameAs(other.Atoms[i]) {
			return false
		}
	}
	return true
}

func (a Atom) sameAs(b Atom) bool {
	if !strings.EqualFold(a.Col, b.Col) || a.Op != b.Op {
		return false
	}
	switch a.Op {
	case Between:
		return a.Val.Equal(b.Val) && a.Val2.Equal(b.Val2)
	case In:
		if len(a.List) != len(b.List) {
			return false
		}
		for i := range a.List {
			if !a.List[i].Equal(b.List[i]) {
				return false
			}
		}
		return true
	default:
		return a.Val.Equal(b.Val)
	}
}

// Empty reports whether the conjunction has no atoms (always true).
func (c Conjunction) Empty() bool { return len(c.Atoms) == 0 }

// String renders the conjunction in evaluation order.
func (c Conjunction) String() string {
	if len(c.Atoms) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(c.Atoms))
	for i, a := range c.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " AND ")
}

// CanonicalKey returns an order-insensitive canonical rendering, prefixed by
// the table name, for use as a feedback-cache key: the same predicate set in
// any order maps to the same key.
func (c Conjunction) CanonicalKey(table string) string {
	parts := make([]string, len(c.Atoms))
	for i, a := range c.Atoms {
		parts[i] = strings.ToLower(a.String())
	}
	sort.Strings(parts)
	return strings.ToLower(table) + "|" + strings.Join(parts, "&")
}

// Columns returns the distinct column names referenced, in first-use order.
func (c Conjunction) Columns() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range c.Atoms {
		k := strings.ToLower(a.Col)
		if !seen[k] {
			seen[k] = true
			out = append(out, a.Col)
		}
	}
	return out
}

// Subset returns the conjunction of the atoms at the given indexes.
func (c Conjunction) Subset(idx ...int) Conjunction {
	out := Conjunction{Atoms: make([]Atom, 0, len(idx))}
	for _, i := range idx {
		out.Atoms = append(out.Atoms, c.Atoms[i])
	}
	return out
}
