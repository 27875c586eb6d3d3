package expr

import (
	"pagefeedback/internal/tuple"
)

// Compiled predicate evaluation over decoded rows, for the one operator that
// never sees a page cell: the covering index scan, whose entries are values.
// Compile resolves the per-atom switch on operator and value kind once — at
// plan-build time — into a slice of type-specialized closures, so the steady
// state is a direct call per atom with no switch, no Value.Compare kind
// checks, and no interface traffic. The closures are immutable after Compile
// and safe to share across concurrent executions of a cached plan.

// atomFn reports whether one atom accepts the row.
type atomFn func(tuple.Row) bool

// Compiled is a type-specialized evaluator for one bound Conjunction. The
// zero value is invalid; obtain one from Compile and check OK.
type Compiled struct {
	fns []atomFn
}

// OK reports whether the compilation produced an evaluator. It is false
// only for the empty conjunction and an unbound atom: every atom Bind
// accepts compiles. The zero value's Eval accepts every row.
func (c Compiled) OK() bool { return c.fns != nil }

// Len returns the number of compiled atoms.
func (c Compiled) Len() int { return len(c.fns) }

// Eval evaluates the conjunction with short-circuiting, equivalently to
// Conjunction.Eval on the source predicate.
func (c Compiled) Eval(row tuple.Row) bool {
	for _, fn := range c.fns {
		if !fn(row) {
			return false
		}
	}
	return true
}

// FirstFail returns the index of the first atom the row fails, or -1 when
// every atom accepts it. This mirrors the first-failing-atom loop the scan
// operators feed to prefix monitors, so compiled evaluation preserves their
// observation semantics exactly.
func (c Compiled) FirstFail(row tuple.Row) int {
	for i, fn := range c.fns {
		if !fn(row) {
			return i
		}
	}
	return -1
}

// EvalBatch filters sel — indices into rows — through the conjunction and
// returns the surviving selection, preserving order. It runs column-at-a-
// time: each atom's closure sweeps the whole selection and compacts it in
// place before the next atom runs (the write cursor trails the read cursor,
// so reuse of sel's backing array is safe), which keeps one closure hot per
// sweep instead of re-dispatching every atom per row. Rows an early atom
// rejects are never touched again, so the result is exactly what per-row
// short-circuit Eval would select. The returned slice aliases sel.
func (c Compiled) EvalBatch(rows []tuple.Row, sel []int) []int {
	for _, fn := range c.fns {
		out := sel[:0]
		for _, i := range sel {
			if fn(rows[i]) {
				out = append(out, i)
			}
		}
		sel = out
		if len(sel) == 0 {
			break
		}
	}
	return sel
}

// Compile specializes every atom of a bound conjunction. It returns a
// Compiled with OK()==false when the predicate is empty (evaluation is
// already trivial) or has an unbound atom.
func Compile(c Conjunction) Compiled {
	if len(c.Atoms) == 0 {
		return Compiled{}
	}
	fns := make([]atomFn, len(c.Atoms))
	for i, a := range c.Atoms {
		fn := compileAtom(a)
		if fn == nil {
			return Compiled{}
		}
		fns[i] = fn
	}
	return Compiled{fns: fns}
}

// compileAtom builds the specialized closure for one atom, or nil when the
// atom is unbound. Bind has checked that every constant has the column's
// kind, so the first constant's kind selects the comparison.
func compileAtom(a Atom) atomFn {
	if !a.bound {
		return nil
	}
	ord := a.ord
	switch a.Op {
	case Between:
		if a.Val.Kind == tuple.KindString {
			lo, hi := a.Val.Str, a.Val2.Str
			return func(row tuple.Row) bool {
				v := row[ord].Str
				return v >= lo && v <= hi
			}
		}
		lo, hi := a.Val.Int, a.Val2.Int
		return func(row tuple.Row) bool {
			v := row[ord].Int
			return v >= lo && v <= hi
		}
	case In:
		return compileIn(ord, a.List)
	default:
		if a.Val.Kind == tuple.KindString {
			return compileStringCmp(ord, a.Op, a.Val.Str)
		}
		return compileNumericCmp(ord, a.Op, a.Val.Int)
	}
}

func compileNumericCmp(ord int, op CmpOp, c int64) atomFn {
	switch op {
	case Eq:
		return func(row tuple.Row) bool { return row[ord].Int == c }
	case Ne:
		return func(row tuple.Row) bool { return row[ord].Int != c }
	case Lt:
		return func(row tuple.Row) bool { return row[ord].Int < c }
	case Le:
		return func(row tuple.Row) bool { return row[ord].Int <= c }
	case Gt:
		return func(row tuple.Row) bool { return row[ord].Int > c }
	default:
		return func(row tuple.Row) bool { return row[ord].Int >= c }
	}
}

func compileStringCmp(ord int, op CmpOp, c string) atomFn {
	switch op {
	case Eq:
		return func(row tuple.Row) bool { return row[ord].Str == c }
	case Ne:
		return func(row tuple.Row) bool { return row[ord].Str != c }
	case Lt:
		return func(row tuple.Row) bool { return row[ord].Str < c }
	case Le:
		return func(row tuple.Row) bool { return row[ord].Str <= c }
	case Gt:
		return func(row tuple.Row) bool { return row[ord].Str > c }
	default:
		return func(row tuple.Row) bool { return row[ord].Str >= c }
	}
}

// compileIn specializes membership tests; the list has the column's kind
// (Bind checked). Larger integer lists get a hash set, small ones a linear
// probe — IN lists in this engine are tiny, so the cutoff only matters for
// hand-built predicates.
func compileIn(ord int, list []tuple.Value) atomFn {
	switch {
	case len(list) == 0:
		return func(tuple.Row) bool { return false }
	case list[0].Kind == tuple.KindString:
		vals := make([]string, len(list))
		for i, v := range list {
			vals[i] = v.Str
		}
		return func(row tuple.Row) bool {
			v := row[ord].Str
			for _, c := range vals {
				if v == c {
					return true
				}
			}
			return false
		}
	case len(list) > 8:
		set := make(map[int64]struct{}, len(list))
		for _, v := range list {
			set[v.Int] = struct{}{}
		}
		return func(row tuple.Row) bool {
			_, ok := set[row[ord].Int]
			return ok
		}
	}
	vals := make([]int64, len(list))
	for i, v := range list {
		vals[i] = v.Int
	}
	return func(row tuple.Row) bool {
		v := row[ord].Int
		for _, c := range vals {
			if v == c {
				return true
			}
		}
		return false
	}
}
