package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as a function body and returns it.
func parseBody(t testing.TB, src string) *ast.BlockStmt {
	t.Helper()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", file, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// checkCFGInvariants asserts the structural invariants every analyzer
// relies on: edge symmetry (every successor edge is its target's
// predecessor edge and vice versa), edges connect blocks of this graph, and
// every block is reachable from Entry or marked dead.
func checkCFGInvariants(t testing.TB, g *CFG) {
	t.Helper()
	index := make(map[*Block]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		index[b] = true
	}
	if !index[g.Entry] || !index[g.Exit] {
		t.Fatal("Entry or Exit missing from Blocks")
	}
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.From != b {
				t.Fatalf("B%d successor edge has From=B%d", b.Index, e.From.Index)
			}
			if !index[e.To] {
				t.Fatalf("B%d edge leads outside the graph", b.Index)
			}
			found := false
			for _, p := range e.To.Preds {
				if p == e {
					found = true
				}
			}
			if !found {
				t.Fatalf("B%d->B%d edge missing from target Preds", b.Index, e.To.Index)
			}
		}
		for _, e := range b.Preds {
			if e.To != b {
				t.Fatalf("B%d predecessor edge has To=B%d", b.Index, e.To.Index)
			}
		}
	}
	reach := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			if !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	for _, b := range g.Blocks {
		if reach[b] != b.Live {
			t.Fatalf("B%d reachable=%v but Live=%v", b.Index, reach[b], b.Live)
		}
	}
}

func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"straightline", `x := 1; y := x; _ = y`},
		{"ifelse", `if a() { b() } else { c() }; d()`},
		{"forloop", `for i := 0; i < 10; i++ { work(i) }`},
		{"rangeloop", `for _, v := range xs { use(v) }`},
		{"breakcontinue", `for { if a() { break }; if b() { continue }; c() }`},
		{"labeled", `outer: for { for { break outer } }`},
		{"gotoback", `top: x(); if a() { goto top }`},
		{"gotofwd", `if a() { goto done }; b(); done: c()`},
		{"switchdefault", `switch a() { case 1: b() ; default: c() }`},
		{"switchnodefault", `switch a() { case 1: b() }`},
		{"fallthrough", `switch a() { case 1: b(); fallthrough; case 2: c() }`},
		{"typeswitch", `switch v := x.(type) { case int: use(v) ; default: }`},
		{"selectstmt", `select { case <-ch: a() ; case ch2 <- 1: b() }`},
		{"returnmid", `if a() { return }; b()`},
		{"panicstmt", `if a() { panic("x") }; b()`},
		{"deadcode", `return; x()`},
		{"deferstmt", `defer a(); b()`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := BuildCFG(parseBody(t, tc.src))
			checkCFGInvariants(t, g)
		})
	}
}

// TestCFGBranchEdges pins the branch metadata pinleak's err-refinement
// relies on: the two if arms share Cond with opposite Negate.
func TestCFGBranchEdges(t *testing.T) {
	g := BuildCFG(parseBody(t, `if err != nil { a() } else { b() }`))
	var pos, neg int
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Cond == nil {
				continue
			}
			if e.Negate {
				neg++
			} else {
				pos++
			}
		}
	}
	if pos != 1 || neg != 1 {
		t.Fatalf("want one positive and one negative branch edge, got %d/%d", pos, neg)
	}
}

// TestCFGReturnKinds: explicit returns, panics, and the implicit fall-off
// all edge into Exit with the right kind.
func TestCFGReturnKinds(t *testing.T) {
	g := BuildCFG(parseBody(t, `if a() { return }; if b() { panic("x") }; c()`))
	kinds := make(map[EdgeKind]int)
	for _, e := range g.Exit.Preds {
		kinds[e.Kind]++
	}
	if kinds[EdgeReturn] != 1 || kinds[EdgePanic] != 1 || kinds[EdgeImplicitReturn] != 1 {
		t.Fatalf("exit edge kinds = %v", kinds)
	}
}

func fuzzSeedBodies() []string {
	return []string{
		`x := 1`,
		`if a { b() } else { c() }`,
		`for i := 0; i < 3; i++ { if i == 1 { continue }; use(i) }`,
		`for _, v := range m { sum += v }`,
		`outer: for { for { if a { break outer }; continue } }`,
		`switch x { case 1: a(); fallthrough; case 2: b(); default: c() }`,
		`select { case <-ch: case ch <- 1: default: }`,
		`goto end; x(); end: y()`,
		`defer f(); go g(); return`,
		`switch v := x.(type) { case int: _ = v }`,
		`{ { x := 1; _ = x }; y := 2; _ = y }`,
		`if a { return }; panic("x")`,
	}
}

// FuzzCFGBuild feeds arbitrary function bodies to the CFG builder: whatever
// parses must build without panicking and satisfy the structural invariants
// (edge symmetry, reachable-or-marked-dead).
func FuzzCFGBuild(f *testing.F) {
	for _, seed := range fuzzSeedBodies() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file := "package p\nfunc f() {\n" + src + "\n}\n"
		fset := token.NewFileSet()
		parsed, err := parser.ParseFile(fset, "p.go", file, 0)
		if err != nil {
			t.Skip()
		}
		fd, ok := parsed.Decls[0].(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			t.Skip()
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("BuildCFG panicked on %q: %v", src, r)
			}
		}()
		g := BuildCFG(fd.Body)
		checkCFGInvariants(t, g)
		// The solvers must terminate on whatever graph came out.
		g.Forward(Flow{
			Boundary: 0,
			Transfer: func(b *Block, in Fact) Fact { return in.(int) },
			Join: func(a, b Fact) Fact {
				if a == nil {
					return b
				}
				return a
			},
			Equal: func(a, b Fact) bool { return fmt.Sprint(a) == fmt.Sprint(b) },
		})
	})
}
