package lint

import (
	"go/ast"
	"go/types"
)

// Per-function summaries: the one-level interprocedural layer of the
// dataflow core. BuildSummaries walks every function in the loaded units
// once, recording its direct callees and whether it charges an
// exec.MemTracker via Grow. The CallsGrow flag propagates over the call
// graph, so membudget accepts a charge routed through a helper.
//
// Function literals are folded into their enclosing declared function:
// their callees and charges count as the parent's.

// FuncInfo is the summary of one declared function or method.
type FuncInfo struct {
	Callees   map[*types.Func]bool
	CallsGrow bool
}

// Summaries indexes FuncInfo by the function's type object.
type Summaries struct {
	Funcs map[*types.Func]*FuncInfo
}

// BuildSummaries computes summaries for every function declared in units,
// then propagates CallsGrow over the call graph to a fixpoint so it sees
// through module-local helpers.
func BuildSummaries(units []*Unit) *Summaries {
	s := &Summaries{Funcs: make(map[*types.Func]*FuncInfo)}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Callees: make(map[*types.Func]bool)}
				summarizeBody(u, fd.Body, fi)
				s.Funcs[obj] = fi
			}
		}
	}
	s.propagate()
	return s
}

// summarizeBody records callees and Grow charges from one body, descending
// into function literals.
func summarizeBody(u *Unit, body *ast.BlockStmt, fi *FuncInfo) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeFunc(u.Info, call); callee != nil {
				fi.Callees[callee] = true
				if callee.Name() == "Grow" && recvTypeNameIs(callee, "MemTracker") {
					fi.CallsGrow = true
				}
			}
		}
		return true
	})
}

// propagate spreads CallsGrow over the module-local call graph until nothing
// changes, so analyzers see charges through helpers.
func (s *Summaries) propagate() {
	for changed := true; changed; {
		changed = false
		for _, fi := range s.Funcs {
			for callee := range fi.Callees {
				if ci, ok := s.Funcs[callee]; ok && ci.CallsGrow && !fi.CallsGrow {
					fi.CallsGrow = true
					changed = true
				}
			}
		}
	}
}
