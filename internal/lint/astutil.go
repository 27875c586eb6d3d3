package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// exprString renders an expression compactly for diagnostics.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}

// namedType returns the named type under t, unwrapping pointers and aliases.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// typeNameIs reports whether t (possibly behind pointers) is a named type
// with the given name.
func typeNameIs(t types.Type, name string) bool {
	n := namedType(t)
	return n != nil && n.Obj().Name() == name
}

// calleeFunc resolves the called function or method of a call expression.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvTypeNameIs reports whether f is a method on a named type (or pointer
// to one) called name.
func recvTypeNameIs(f *types.Func, name string) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil && typeNameIs(sig.Recv().Type(), name)
}

// selectedField resolves a selector to the struct field it reads, or nil.
func selectedField(info *types.Info, sel *ast.SelectorExpr) types.Object {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// firstResult returns the type of a call's first result (the call's type
// itself for single-result calls).
func firstResult(info *types.Info, call *ast.CallExpr) types.Type {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return nil
		}
		return tup.At(0).Type()
	}
	return tv.Type
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Name() == "Context" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context"
}

// pkgLastSegment returns the final path element of a package path.
func pkgLastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// funcBodies yields every function body in the file together with its
// declaration context: FuncDecls first, then every FuncLit (each analyzed as
// its own scope).
type funcBody struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
}

func funcBodies(f *ast.File) []funcBody {
	var out []funcBody
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcBody{decl: fd, body: fd.Body})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, funcBody{lit: fl, body: fl.Body})
		}
		return true
	})
	return out
}

// recvTypeName returns the name of a method's receiver type, or "".
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.ParenExpr:
			t = u.X
		case *ast.IndexExpr: // generic receiver
			t = u.X
		case *ast.Ident:
			return u.Name
		default:
			return ""
		}
	}
}
