package lint

import (
	"go/ast"
	"go/types"
)

// importedPkgPath resolves a selector base like `rand` in rand.Intn to
// the imported package path, or "" when the base is not a package name.
func importedPkgPath(info *types.Info, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// namedPathName returns the defining package path and name of a named
// type, dereferencing one pointer level; ok is false for unnamed types.
func namedPathName(t types.Type) (path, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name(), true
	}
	return obj.Pkg().Path(), obj.Name(), true
}
