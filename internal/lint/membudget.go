package lint

import (
	"go/ast"
	"go/types"
)

// MemBudgetAnalyzer enforces the overload-protection invariant on exec
// operators: build-side state that grows per input row must charge the
// query's exec.MemTracker before growing, or a memory budget cannot bound
// the query. Growth sites are:
//
//   - appending to a row-buffer field (a selector whose slice element type
//     is named Row or Value),
//   - appending to a field of a Batch (Rows or the []int selection vector) —
//     batch arenas grow per batch exactly like row buffers do per row,
//   - inserting into a map-typed field whose values carry row data (slices,
//     pointers, structs — bounded bookkeeping maps with scalar values, like
//     `satisfied map[int]bool`, are exempt),
//   - any append of a Clone()d row (cloning copies the row out of the page
//     buffer into operator-owned memory),
//   - allocating a value slab, `make([]Value, n)` with a non-constant size:
//     the fresh memory a batch copy (exec's retainRows) fills with retained
//     rows. Seeing the make itself, not only appends, is what holds a copy
//     helper to charging before it allocates rather than after it copies.
//
// A site is satisfied when a charge — MemTracker.Grow called directly or
// through a module helper (per the one-level summaries) — precedes it on
// every path from function entry (forward must-analysis over the CFG).
//
// Row-buffer and batch-field appends have a second sanctioned shape:
// high-water reuse, where `x.f = x.f[:0]` dominates the append, so it
// recycles capacity retained from earlier calls instead of growing the
// query's footprint per row. The reset may be in the same statement
// (`append(x.f[:0], ...)`) or anywhere that dominates the append;
// reassigning the field to anything else invalidates it. Cloned-row and
// map inserts never get this exemption — a clone is new memory wherever
// it lands, a value slab is fresh by construction, and map growth has no
// reset idiom.
//
// The analyzer only runs over packages named exec; other packages do not
// own tracked operator state.
var MemBudgetAnalyzer = &Analyzer{
	Name: "membudget",
	Doc:  "exec operators charge exec.MemTracker before growing build-side slices or maps",
	Run:  runMemBudget,
}

func runMemBudget(pass *Pass) error {
	if pass.Pkg.Name() != "exec" {
		return nil
	}
	sums := BuildSummaries([]*Unit{pass.unit})
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			analyzeMemScope(pass, fb.body, sums)
		}
	}
	return nil
}

// memSite is one growth site: what names the grown state for the diagnostic,
// key identifies the selector it grows (types.ExprString form), and
// resettable marks the categories the high-water-reuse exemption applies to.
type memSite struct {
	what       string
	key        string
	resettable bool
}

// memFact is the forward must-analysis fact: charged reports whether a
// MemTracker charge has happened on every path to this point, reset holds
// the selectors `x.f = x.f[:0]` has reset on every path (and that have not
// been reassigned since).
type memFact struct {
	charged bool
	reset   map[string]bool
}

func (f memFact) clone() memFact {
	out := memFact{charged: f.charged}
	if len(f.reset) > 0 {
		out.reset = make(map[string]bool, len(f.reset))
		for k := range f.reset {
			out.reset[k] = true
		}
	}
	return out
}

func analyzeMemScope(pass *Pass, body *ast.BlockStmt, sums *Summaries) {
	// Collect growth sites in this scope first; skip the dataflow when the
	// function has none.
	sites := make(map[ast.Node]memSite)
	inspectScope(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if site, ok := growthSite(pass.Info, as); ok {
			sites[as] = site
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	reported := make(map[ast.Node]bool)
	asFact := func(f Fact) memFact {
		if f == nil {
			return memFact{}
		}
		return f.(memFact)
	}
	g := BuildCFG(body)
	g.Forward(Flow{
		Boundary: memFact{},
		Transfer: func(b *Block, in Fact) Fact {
			f := asFact(in).clone()
			for _, n := range b.Nodes {
				if !f.charged && nodeCharges(pass.Info, sums, n) {
					f.charged = true
				}
				if as, ok := n.(*ast.AssignStmt); ok {
					switch key, action := resetAction(as); action {
					case resetSets:
						if f.reset == nil {
							f.reset = make(map[string]bool)
						}
						f.reset[key] = true
					case resetKills:
						delete(f.reset, key)
					}
				}
				if site, ok := sites[n]; ok && !reported[n] {
					if !f.charged && !(site.resettable && f.reset[site.key]) {
						reported[n] = true
						pass.Reportf(n.Pos(),
							"%s grows without charging exec.MemTracker first (call Grow, directly or via a charging helper, before the insert)", site.what)
					}
				}
			}
			return f
		},
		Join: func(a, b Fact) Fact {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			fa, fb := asFact(a), asFact(b)
			out := memFact{charged: fa.charged && fb.charged}
			for k := range fa.reset {
				if fb.reset[k] {
					if out.reset == nil {
						out.reset = make(map[string]bool)
					}
					out.reset[k] = true
				}
			}
			return out
		},
		Equal: func(a, b Fact) bool {
			fa, fb := asFact(a), asFact(b)
			if fa.charged != fb.charged || len(fa.reset) != len(fb.reset) {
				return false
			}
			for k := range fa.reset {
				if !fb.reset[k] {
					return false
				}
			}
			return true
		},
	})
}

// resetAction classifies an assignment's effect on the reset set.
const (
	resetNone = iota
	resetSets
	resetKills
)

func resetAction(as *ast.AssignStmt) (string, int) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return "", resetNone
	}
	sel, ok := ast.Unparen(as.Lhs[0]).(*ast.SelectorExpr)
	if !ok {
		return "", resetNone
	}
	key := types.ExprString(sel)
	// x.f = x.f[:0] resets; x.f = x.f[:n] or x.f = other[...] reassigns.
	if sl, ok := ast.Unparen(as.Rhs[0]).(*ast.SliceExpr); ok {
		if sl.Low == nil && isZeroLit(sl.High) && types.ExprString(ast.Unparen(sl.X)) == key {
			return key, resetSets
		}
		return key, resetKills
	}
	// x.f = append(x.f, ...) and x.f = append(x.f[:0], ...) keep the field's
	// identity (and retained capacity); anything else reassigns it.
	if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			base := ast.Unparen(call.Args[0])
			if sl, ok := base.(*ast.SliceExpr); ok {
				base = ast.Unparen(sl.X)
			}
			if types.ExprString(base) == key {
				return "", resetNone
			}
		}
	}
	return key, resetKills
}

// isZeroLit reports whether e is the integer literal 0.
func isZeroLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// nodeCharges reports whether the node contains a MemTracker charge, either
// a direct Grow call or a call to a module function whose summary charges.
func nodeCharges(info *types.Info, sums *Summaries, n ast.Node) bool {
	charges := false
	InspectNode(n, func(nd ast.Node) bool {
		if charges {
			return false
		}
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil {
			return true
		}
		if callee.Name() == "Grow" && recvTypeNameIs(callee, "MemTracker") {
			charges = true
			return false
		}
		if fi, ok := sums.Funcs[callee]; ok && fi.CallsGrow {
			charges = true
			return false
		}
		return true
	})
	return charges
}

// scalarMapValue reports whether a map value type is a flat scalar
// (bool/number/empty struct): such maps are bounded bookkeeping keyed by
// request or slot index, not per-row build-side state.
func scalarMapValue(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsBoolean|types.IsNumeric) != 0
	case *types.Struct:
		return u.NumFields() == 0
	}
	return false
}

// batchReceiver reports whether the selector's base is a Batch (directly or
// through a pointer).
func batchReceiver(info *types.Info, sel *ast.SelectorExpr) bool {
	tv, ok := info.Types[ast.Unparen(sel.X)]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return typeNameIs(t, "Batch")
}

// growthSite classifies an assignment as operator-state growth. The site's
// what string names the grown state for the diagnostic.
func growthSite(info *types.Info, as *ast.AssignStmt) (memSite, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return memSite{}, false
	}
	// Map-field insert: x.f[k] = v.
	if idx, ok := as.Lhs[0].(*ast.IndexExpr); ok {
		sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
		if !ok {
			return memSite{}, false
		}
		tv, ok := info.Types[sel]
		if !ok {
			return memSite{}, false
		}
		if m, isMap := tv.Type.Underlying().(*types.Map); isMap && !scalarMapValue(m.Elem()) {
			return memSite{what: "map field " + sel.Sel.Name}, true
		}
		return memSite{}, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return memSite{}, false
	}
	if valueSlab(info, call) {
		return memSite{what: "value slab"}, true
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return memSite{}, false
	}
	// Clone()d rows move page memory into operator-owned memory wherever
	// they land, local variable or field — never high-water reuse.
	for _, arg := range call.Args[1:] {
		if c, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Clone" {
				return memSite{what: "cloned-row buffer"}, true
			}
		}
	}
	// Row-buffer or batch-field append: x.f = append(x.f, ...). An
	// append(x.f[:0], ...) first argument is an in-statement reset — reuse of
	// already-charged capacity, exempt outright.
	sel, ok := ast.Unparen(as.Lhs[0]).(*ast.SelectorExpr)
	if !ok {
		return memSite{}, false
	}
	if _, isReuse := ast.Unparen(call.Args[0]).(*ast.SliceExpr); isReuse {
		return memSite{}, false
	}
	tv, ok := info.Types[sel]
	if !ok {
		return memSite{}, false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return memSite{}, false
	}
	key := types.ExprString(sel)
	if typeNameIs(sl.Elem(), "Row") || typeNameIs(sl.Elem(), "Value") {
		return memSite{what: "row-buffer field " + sel.Sel.Name, key: key, resettable: true}, true
	}
	if batchReceiver(info, sel) {
		return memSite{what: "batch field " + sel.Sel.Name, key: key, resettable: true}, true
	}
	return memSite{}, false
}

// valueSlab reports whether call is make([]Value, n[, c]) with a size that is
// not a compile-time constant: a slab sized by the rows it will hold.
func valueSlab(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) < 2 {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok || !typeNameIs(sl.Elem(), "Value") {
		return false
	}
	for _, size := range call.Args[1:] {
		if tv, ok := info.Types[size]; ok && tv.Value == nil {
			return true
		}
	}
	return false
}
