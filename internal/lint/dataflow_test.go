package lint

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// factSet is a tiny immutable string-set fact for the solver tests.
type factSet map[string]bool

func asFactSet(f Fact) factSet {
	if f == nil {
		return nil
	}
	return f.(factSet)
}

func (s factSet) with(k string) factSet {
	if s[k] {
		return s
	}
	out := make(factSet, len(s)+1)
	for v := range s {
		out[v] = true
	}
	out[k] = true
	return out
}

func (s factSet) sig() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func unionFlow() Flow {
	return Flow{
		Boundary: factSet{},
		Join: func(a, b Fact) Fact {
			av, bv := asFactSet(a), asFactSet(b)
			if av == nil {
				return bv
			}
			if bv == nil {
				return av
			}
			out := make(factSet, len(av)+len(bv))
			for k := range av {
				out[k] = true
			}
			for k := range bv {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b Fact) bool { return asFactSet(a).sig() == asFactSet(b).sig() },
	}
}

// assignedNames returns the identifiers a node assigns with `=` or `:=`.
func assignedNames(n ast.Node) []string {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return nil
	}
	var out []string
	for _, l := range as.Lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
			out = append(out, id.Name)
		}
	}
	return out
}

// usedNames returns identifiers a node reads (crudely: all non-assigned
// ident uses on the right-hand side or in expressions).
func usedNames(n ast.Node) []string {
	var out []string
	collect := func(e ast.Expr) {
		ast.Inspect(e, func(nd ast.Node) bool {
			if id, ok := nd.(*ast.Ident); ok {
				out = append(out, id.Name)
			}
			return true
		})
	}
	switch nd := n.(type) {
	case *ast.ExprStmt:
		collect(nd.X)
	case *ast.IncDecStmt:
		collect(nd.X)
	case *ast.AssignStmt:
		for _, r := range nd.Rhs {
			collect(r)
		}
	case *ast.ReturnStmt:
		for _, r := range nd.Results {
			collect(r)
		}
	case ast.Expr:
		collect(nd)
	}
	return out
}

// TestForwardReachingDefs: a forward may-analysis (union join) over a
// diamond sees definitions from both arms at the merge.
func TestForwardReachingDefs(t *testing.T) {
	body := parseBody(t, `
		if cond {
			a := 1
			_ = a
		} else {
			b := 2
			_ = b
		}
		c := 3
		_ = c
	`)
	g := BuildCFG(body)
	flow := unionFlow()
	flow.Transfer = func(b *Block, in Fact) Fact {
		cur := asFactSet(in)
		if cur == nil {
			cur = factSet{}
		}
		for _, n := range b.Nodes {
			for _, name := range assignedNames(n) {
				cur = cur.with(name)
			}
		}
		return cur
	}
	in := g.Forward(flow)
	atExit := asFactSet(in[g.Exit])
	for _, want := range []string{"a", "b", "c"} {
		if !atExit[want] {
			t.Errorf("definition of %q did not reach exit: %v", want, atExit.sig())
		}
	}
}

// TestForwardTerminatesOnIrreducible: goto-built loops (irreducible control
// flow) must still reach a fixpoint under the iteration cap.
func TestForwardTerminatesOnIrreducible(t *testing.T) {
	body := parseBody(t, `
		if a { goto second }
	first:
		x()
		goto second
	second:
		y()
		if b { goto first }
	`)
	g := BuildCFG(body)
	flow := unionFlow()
	flow.Transfer = func(b *Block, in Fact) Fact {
		cur := asFactSet(in)
		if cur == nil {
			cur = factSet{}
		}
		for _, n := range b.Nodes {
			for _, name := range usedNames(n) {
				cur = cur.with(name)
			}
		}
		return cur
	}
	in := g.Forward(flow)
	if len(in) == 0 {
		t.Fatal("solver returned no facts")
	}
}
