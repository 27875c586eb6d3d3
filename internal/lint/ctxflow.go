package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer enforces the context-plumbing discipline introduced by the
// query-lifecycle hardening: cancellation must flow from the engine entry
// points down through every operator, never be re-rooted mid-stack.
//
//   - context.Background() / context.TODO() are forbidden outside package
//     main (cmd/) and tests. Two sanctioned exceptions inside library
//     code: (1) a convenience wrapper — a method on a type that also has a
//     "<Name>Context" sibling taking the context explicitly — may root a
//     fresh background context; (2) a nil-guard that assigns a default into
//     the function's own context.Context parameter.
//   - Any function that takes a context.Context must take it as its first
//     parameter.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "check that context.Context flows from the engine entry points and is always the first parameter",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	isMain := pass.Pkg.Name() == "main"

	// Methods per receiver type name, to recognize Query/QueryContext
	// wrapper pairs.
	methods := make(map[string]map[string]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if recv := recvTypeName(fd); recv != "" {
				if methods[recv] == nil {
					methods[recv] = make(map[string]bool)
				}
				methods[recv][fd.Name.Name] = true
			}
		}
	}

	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			checkCtxParamFirst(pass, fb)
		}
		if isMain {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			allowWrapper := false
			if recv := recvTypeName(fd); recv != "" && methods[recv][fd.Name.Name+"Context"] {
				allowWrapper = true
			}
			checkBackgroundCalls(pass, fd, allowWrapper)
		}
	}
	return nil
}

// checkCtxParamFirst reports context.Context parameters that are not the
// first parameter.
func checkCtxParamFirst(pass *Pass, fb funcBody) {
	var ft *ast.FuncType
	if fb.decl != nil {
		ft = fb.decl.Type
	} else {
		ft = fb.lit.Type
	}
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if tv, ok := pass.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			if idx != 0 {
				pass.Reportf(field.Pos(), "context.Context must be the first parameter")
			}
		}
		idx += n
	}
}

// checkBackgroundCalls reports context.Background/TODO calls in fd unless
// sanctioned.
func checkBackgroundCalls(pass *Pass, fd *ast.FuncDecl, allowWrapper bool) {
	// Context-typed parameters of fd, for the nil-guard exception.
	ctxParams := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if tv, ok := pass.Info.Types[field.Type]; ok && isContextType(tv.Type) {
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						ctxParams[obj] = true
					}
				}
			}
		}
	}

	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if ok {
			if name := contextRootCall(pass.Info, call); name != "" {
				switch {
				case allowWrapper:
					// Query -> QueryContext style convenience wrapper.
				case name == "Background" && isNilGuardAssign(pass.Info, stack, call, ctxParams):
					// ctx = context.Background() defaulting the own parameter.
				default:
					pass.Reportf(call.Pos(),
						"context.%s() outside cmd/, tests, and the engine entry points: accept a ctx parameter and pass it down", name)
				}
			}
		}
		stack = append(stack, n)
		return true
	})
}

// contextRootCall returns "Background" or "TODO" when call is
// context.Background() / context.TODO(), else "".
func contextRootCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

// isNilGuardAssign reports whether call appears as `ctxParam =
// context.Background()` — the only sanctioned in-library use: defaulting a
// nil context into the function's own context parameter.
func isNilGuardAssign(info *types.Info, stack []ast.Node, call *ast.CallExpr, ctxParams map[types.Object]bool) bool {
	if len(ctxParams) == 0 || len(stack) == 0 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Rhs[0] != ast.Expr(call) {
		return false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return ctxParams[obj]
}
