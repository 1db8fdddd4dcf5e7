// Package wireerrors keeps typed errors honest across the rpc wire. The
// rpc layer transports a handler error as a registered code plus message
// and rebuilds a wrapper around the registered sentinel on the caller side;
// that contract only works if (a) every package-level sentinel in a package
// that talks rpc is registered with rpc.RegisterError, and (b) callers
// classify errors with errors.Is rather than == identity or message-string
// matching — a reconstructed *RemoteError is never identical to the
// sentinel, and message text is not API.
//
// Three checks:
//
//   - error == / != comparisons between two error values (nil stays legal)
//     are flagged, with a SuggestedFix rewriting to errors.Is / !errors.Is
//     when the file already imports errors;
//   - message matching — comparing err.Error() to a string literal or
//     passing it to strings.Contains/HasPrefix/HasSuffix — is flagged in
//     non-test files;
//   - in packages importing the rpc layer, every package-level sentinel
//     error variable must appear as the sentinel argument of a
//     RegisterError call somewhere in that package.
package wireerrors

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strconv"

	"leime/internal/analysis"
)

// rpcPaths names the import paths recognized as "the rpc layer"; the bare
// "rpc" entry lets analysistest fixtures model it without the full module.
var rpcPaths = []string{"leime/internal/rpc", "rpc"}

// Analyzer flags ==/!= and message-string error classification and
// unregistered wire sentinels.
var Analyzer = &analysis.Analyzer{
	Name: "wireerrors",
	Doc:  "errors crossing the wire must be registered and classified with errors.Is",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		checkComparisons(pass, f)
		if !pass.InTestFile(f.Pos()) {
			checkMessageMatching(pass, f)
		}
	}
	checkRegistration(pass)
	return nil, nil
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type()

func isErrorExpr(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	return t != nil && types.Identical(t, errorType)
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// checkComparisons flags error == error and error != error, suggesting the
// errors.Is rewrite when the file imports errors.
func checkComparisons(pass *analysis.Pass, f *ast.File) {
	hasErrors := importsPackage(f, "errors")
	ast.Inspect(f, func(n ast.Node) bool {
		// An Is(error) bool method IS the errors.Is protocol; identity
		// comparison inside it is the idiomatic implementation, not a
		// violation.
		if fd, ok := n.(*ast.FuncDecl); ok && isIsMethod(fd) {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return true
		}
		if !isErrorExpr(pass, bin.X) || !isErrorExpr(pass, bin.Y) {
			return true
		}
		if isNil(pass, bin.X) || isNil(pass, bin.Y) {
			return true
		}
		err, sentinel := bin.X, bin.Y
		if isPackageLevelVar(pass, err) && !isPackageLevelVar(pass, sentinel) {
			err, sentinel = sentinel, err
		}
		d := analysis.Diagnostic{
			Pos: bin.Pos(),
			End: bin.End(),
			Message: "error compared with " + bin.Op.String() +
				"; use errors.Is so wrapped and wire-reconstructed errors still match",
		}
		if hasErrors {
			repl := "errors.Is(" + render(pass, err) + ", " + render(pass, sentinel) + ")"
			if bin.Op == token.NEQ {
				repl = "!" + repl
			}
			d.SuggestedFixes = []analysis.SuggestedFix{{
				Message:   "rewrite with errors.Is",
				TextEdits: []analysis.TextEdit{{Pos: bin.Pos(), End: bin.End(), NewText: []byte(repl)}},
			}}
		}
		pass.Report(d)
		return true
	})
}

// isIsMethod matches the errors.Is unwrap-protocol method shape:
// a method named Is taking one error parameter and returning bool.
func isIsMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "Is" {
		return false
	}
	p, r := fd.Type.Params, fd.Type.Results
	return p != nil && len(p.List) == 1 && r != nil && len(r.List) == 1
}

// isPackageLevelVar reports whether e names a package-scope variable — the
// shape of a sentinel, used to order errors.Is arguments in fixes.
func isPackageLevelVar(pass *analysis.Pass, e ast.Expr) bool {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	return ok && obj.Parent() == obj.Pkg().Scope()
}

// checkMessageMatching flags classification by error message text.
func checkMessageMatching(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if x.Op != token.EQL && x.Op != token.NEQ {
				return true
			}
			if (isErrorCall(pass, x.X) && isStringLit(x.Y)) || (isErrorCall(pass, x.Y) && isStringLit(x.X)) {
				pass.Reportf(x.Pos(), "error classified by message text; match the sentinel with errors.Is instead")
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || pkg.Imported().Path() != "strings" {
				return true
			}
			switch sel.Sel.Name {
			case "Contains", "HasPrefix", "HasSuffix", "EqualFold":
				for _, arg := range x.Args {
					if isErrorCall(pass, arg) {
						pass.Reportf(x.Pos(), "error classified by message text via strings.%s; match the sentinel with errors.Is instead", sel.Sel.Name)
					}
				}
			}
		}
		return true
	})
}

// isErrorCall reports whether e is a call to the Error() method of an
// error value.
func isErrorCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	return isErrorExpr(pass, sel.X)
}

func isStringLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

// checkRegistration verifies every package-level sentinel error in an
// rpc-importing package is registered via RegisterError.
func checkRegistration(pass *analysis.Pass) {
	if !talksRPC(pass) {
		return
	}
	sentinels := map[types.Object]*ast.Ident{}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil || !types.Identical(obj.Type(), errorType) {
						continue
					}
					sentinels[obj] = name
				}
			}
		}
	}
	if len(sentinels) == 0 {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if !isRegisterError(pass, call.Fun) {
				return true
			}
			var id *ast.Ident
			switch a := call.Args[1].(type) {
			case *ast.Ident:
				id = a
			case *ast.SelectorExpr:
				id = a.Sel
			default:
				return true
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				delete(sentinels, obj)
			}
			return true
		})
	}
	for obj, id := range sentinels {
		pass.Reportf(id.Pos(), "sentinel error %s is never registered with rpc.RegisterError; it would cross the wire untyped and errors.Is would stop matching on the caller side", obj.Name())
	}
}

// talksRPC reports whether the package is, or imports, the rpc layer.
func talksRPC(pass *analysis.Pass) bool {
	if isRPCPath(pass.Pkg.Path()) {
		return true
	}
	for _, imp := range pass.Pkg.Imports() {
		if isRPCPath(imp.Path()) {
			return true
		}
	}
	return false
}

func isRPCPath(path string) bool {
	for _, p := range rpcPaths {
		if path == p {
			return true
		}
	}
	return false
}

// isRegisterError matches the callee of a RegisterError call, either as a
// selector on the imported rpc package or as the rpc package's own local
// function.
func isRegisterError(pass *analysis.Pass, fun ast.Expr) bool {
	switch x := fun.(type) {
	case *ast.SelectorExpr:
		if x.Sel.Name != "RegisterError" {
			return false
		}
		id, ok := x.X.(*ast.Ident)
		if !ok {
			return false
		}
		pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		return ok && isRPCPath(pkg.Imported().Path())
	case *ast.Ident:
		return x.Name == "RegisterError" && isRPCPath(pass.Pkg.Path())
	}
	return false
}

// importsPackage reports whether file f imports path without renaming it
// away ("_" or ".").
func importsPackage(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		return imp.Name == nil || (imp.Name.Name != "_" && imp.Name.Name != ".")
	}
	return false
}

// render prints an expression's source form for fix text.
func render(pass *analysis.Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return "err"
	}
	return buf.String()
}
