// Package wirefrozen freezes the binary wire protocol. Codec IDs and the
// encoded field order/types behind them are wire contract (DESIGN.md §13):
// a reused ID, a reordered field, or a changed field type silently
// misparses on any peer built from a different commit. The analyzer
// extracts every rpc.RegisterCodec call, fingerprints the ordered encoder
// operations of its encode function (inlining same-package helpers such as
// encodeModel), and compares the result against the committed golden
// manifest (wire.manifest at the module root).
//
// Append-only evolution is the only pass: a brand-new ID may be appended
// (regenerate the manifest with -fix or `leimevet -write-manifest`), but an
// ID rebound to a different type is an error with no machine fix, and a
// changed signature fails until the manifest is consciously regenerated —
// the manifest diff is what the reviewer sees.
package wirefrozen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"sort"
	"strconv"
	"strings"

	"leime/internal/analysis"
)

// ManifestPath locates the golden manifest the analyzer checks against.
// The driver sets it to <module root>/wire.manifest; empty disables the
// manifest comparison (extraction-only).
var ManifestPath string

// Analyzer checks rpc.RegisterCodec calls against the wire.manifest.
var Analyzer = &analysis.Analyzer{
	Name: "wirefrozen",
	Doc:  "codec IDs and encoded field order are frozen by wire.manifest; append-only evolution",
	Run:  run,
}

// Entry is one frozen codec: its wire ID, the registered message type, and
// the fingerprint of its encode function.
type Entry struct {
	// ID is the uint16 wire codec ID.
	ID uint64
	// Type is the package-path-qualified message type.
	Type string
	// Hash is the first 12 hex digits of sha256(Sig).
	Hash string
	// Sig is the human-readable ordered encoder-operation signature.
	Sig string

	pos ast.Node // registration call, set on extraction only
}

// pkgPath returns the package-path part of the entry's type string.
func (e Entry) pkgPath() string {
	t := e.Type
	slash := strings.LastIndex(t, "/")
	dot := strings.Index(t[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	return t[:slash+1+dot]
}

func run(pass *analysis.Pass) (any, error) {
	regs := extract(pass)
	if len(regs) == 0 || ManifestPath == "" {
		return nil, nil
	}
	manifest, err := LoadManifest(ManifestPath)
	if err != nil {
		return nil, err
	}
	byID := map[uint64]Entry{}
	for _, m := range manifest {
		byID[m.ID] = m
	}

	// An ID reused for a different type is never machine-fixable; when one
	// is present, regenerating the manifest would launder the conflict, so
	// every fix in this package is withheld.
	fixable := true
	seen := map[uint64]Entry{}
	for _, r := range regs {
		if prev, dup := seen[r.ID]; dup && prev.Type != r.Type {
			fixable = false
		}
		seen[r.ID] = r
		if m, ok := byID[r.ID]; ok && m.Type != r.Type {
			fixable = false
		}
	}

	regen := func() []analysis.SuggestedFix {
		if !fixable {
			return nil
		}
		merged := MergeManifest(manifest, map[string]bool{pass.Pkg.Path(): true}, regs)
		return []analysis.SuggestedFix{{
			Message:   "regenerate wire.manifest",
			TextEdits: []analysis.TextEdit{{File: ManifestPath, NewText: FormatManifest(merged)}},
		}}
	}

	seen = map[uint64]Entry{}
	for _, r := range regs {
		if prev, dup := seen[r.ID]; dup && prev.Type != r.Type {
			pass.Report(analysis.Diagnostic{
				Pos:     r.pos.Pos(),
				Message: fmt.Sprintf("codec ID %d registered twice: for %s and %s; wire IDs are frozen, pick a fresh one", r.ID, prev.Type, r.Type),
			})
			continue
		}
		seen[r.ID] = r
		m, ok := byID[r.ID]
		switch {
		case !ok:
			pass.Report(analysis.Diagnostic{
				Pos:            r.pos.Pos(),
				Message:        fmt.Sprintf("codec ID %d (%s) is not in wire.manifest; if this is a legitimately appended ID, regenerate the manifest with -fix", r.ID, r.Type),
				SuggestedFixes: regen(),
			})
		case m.Type != r.Type:
			pass.Report(analysis.Diagnostic{
				Pos:     r.pos.Pos(),
				Message: fmt.Sprintf("codec ID %d reused: wire.manifest binds it to %s but the code registers %s; IDs identify the type on the wire and must never be rebound", r.ID, m.Type, r.Type),
			})
		case m.Hash != r.Hash:
			pass.Report(analysis.Diagnostic{
				Pos: r.pos.Pos(),
				Message: fmt.Sprintf("wire signature of codec ID %d (%s) changed: manifest has %q, code encodes %q; field reorders and type changes break peers — append a new ID, or regenerate the manifest with -fix if this change is deliberate",
					r.ID, r.Type, m.Sig, r.Sig),
				SuggestedFixes: regen(),
			})
		}
	}
	for _, m := range manifest {
		if m.pkgPath() != pass.Pkg.Path() {
			continue
		}
		if _, ok := seen[m.ID]; !ok {
			pass.Report(analysis.Diagnostic{
				Pos:            pass.Files[0].Package,
				Message:        fmt.Sprintf("wire.manifest entry for codec ID %d (%s) has no rpc.RegisterCodec call in %s; removing a frozen codec orphans peers — regenerate the manifest with -fix if the retirement is deliberate", m.ID, m.Type, pass.Pkg.Path()),
				SuggestedFixes: regen(),
			})
		}
	}
	return nil, nil
}

// extract fingerprints every rpc.RegisterCodec call in the package's
// non-test files, in source order.
func extract(pass *analysis.Pass) []Entry {
	decls := packageFuncs(pass)
	var out []Entry
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isRegisterCodec(pass, call) || len(call.Args) < 4 {
				return true
			}
			id, ok := constUint(pass, call.Args[0])
			if !ok {
				pass.Reportf(call.Pos(), "rpc.RegisterCodec called with a non-constant codec ID; wire IDs must be frozen constants")
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Args[1]]
			if !ok || tv.Type == nil {
				return true
			}
			x := &extractor{pass: pass, funcs: decls}
			sig := x.funcSig(call.Args[2])
			sum := sha256.Sum256([]byte(sig))
			out = append(out, Entry{
				ID:   id,
				Type: types.TypeString(tv.Type, nil),
				Hash: hex.EncodeToString(sum[:])[:12],
				Sig:  sig,
				pos:  call,
			})
			return true
		})
	}
	return out
}

// isRegisterCodec reports whether call invokes rpc.RegisterCodec (matched
// by function name and an rpc-suffixed package path, so fixtures under a
// bare "rpc" package qualify).
func isRegisterCodec(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "RegisterCodec" || fn.Pkg() == nil {
		return false
	}
	return isRPCPath(fn.Pkg().Path())
}

func isRPCPath(path string) bool {
	return path == "rpc" || strings.HasSuffix(path, "/rpc")
}

// packageFuncs indexes the package's function declarations by object, so
// encode helpers named at registration sites can be inlined.
func packageFuncs(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

func constUint(pass *analysis.Pass, e ast.Expr) (uint64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Uint64Val(constant.ToInt(tv.Value))
	return v, ok
}

// extractor renders an encode function's body as the ordered sequence of
// wire operations it performs.
type extractor struct {
	pass  *analysis.Pass
	funcs map[*types.Func]*ast.FuncDecl
	depth int
}

// funcSig fingerprints the function expression passed as the encode
// argument: a literal's body, or a named same-package function's body.
func (x *extractor) funcSig(e ast.Expr) string {
	switch fn := e.(type) {
	case *ast.FuncLit:
		return strings.Join(x.stmts(fn.Body.List), " ")
	case *ast.Ident:
		if obj, ok := x.pass.TypesInfo.Uses[fn].(*types.Func); ok {
			if decl := x.funcs[obj]; decl != nil && decl.Body != nil {
				return strings.Join(x.stmts(decl.Body.List), " ")
			}
		}
	}
	return "?opaque"
}

// stmts renders a statement list: encoder method calls in order, with
// control flow (loops, branches) bracketed so reordering or restructuring
// the encoded stream always changes the signature. Statements that do not
// reach the encoder (sorting keys, locals) are invisible.
func (x *extractor) stmts(list []ast.Stmt) []string {
	var out []string
	for _, s := range list {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if op, ok := x.callOp(st.X); ok {
				out = append(out, op)
			}
		case *ast.BlockStmt:
			out = append(out, x.stmts(st.List)...)
		case *ast.RangeStmt:
			if inner := x.stmts(st.Body.List); len(inner) > 0 {
				out = append(out, "range("+canon(st.X)+"){"+strings.Join(inner, " ")+"}")
			}
		case *ast.ForStmt:
			if inner := x.stmts(st.Body.List); len(inner) > 0 {
				out = append(out, "for{"+strings.Join(inner, " ")+"}")
			}
		case *ast.IfStmt:
			thenOps := x.stmts(st.Body.List)
			var elseOps []string
			if st.Else != nil {
				elseOps = x.stmts([]ast.Stmt{st.Else})
			}
			if len(thenOps) > 0 || len(elseOps) > 0 {
				op := "if{" + strings.Join(thenOps, " ") + "}"
				if len(elseOps) > 0 {
					op += "else{" + strings.Join(elseOps, " ") + "}"
				}
				out = append(out, op)
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			var body []ast.Stmt
			if sw, ok := st.(*ast.SwitchStmt); ok {
				body = sw.Body.List
			} else {
				body = st.(*ast.TypeSwitchStmt).Body.List
			}
			var cases []string
			for _, c := range body {
				if cc, ok := c.(*ast.CaseClause); ok {
					if inner := x.stmts(cc.Body); len(inner) > 0 {
						cases = append(cases, "case{"+strings.Join(inner, " ")+"}")
					}
				}
			}
			if len(cases) > 0 {
				out = append(out, "switch{"+strings.Join(cases, " ")+"}")
			}
		}
	}
	return out
}

// callOp renders one expression statement: an Encoder method call becomes
// Method(args...), a call into a same-package helper that takes an Encoder
// is inlined anonymously (renaming a helper must not change the wire
// signature), anything else is invisible.
func (x *extractor) callOp(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := x.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isEncoderType(sig.Recv().Type()) {
				args := make([]string, len(call.Args))
				for i, a := range call.Args {
					args[i] = canon(a)
				}
				return fn.Name() + "(" + strings.Join(args, ",") + ")", true
			}
		}
	}
	if fn := calleeFunc(x.pass, call); fn != nil && fn.Pkg() == x.pass.Pkg && hasEncoderParam(fn) {
		if decl := x.funcs[fn]; decl != nil && decl.Body != nil && x.depth < 8 {
			x.depth++
			inner := x.stmts(decl.Body.List)
			x.depth--
			if len(inner) > 0 {
				return "{" + strings.Join(inner, " ") + "}", true
			}
		}
	}
	return "", false
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func hasEncoderParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isEncoderType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isEncoderType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Encoder" && obj.Pkg() != nil && isRPCPath(obj.Pkg().Path())
}

// canon renders an expression with local receiver/value names stripped:
// r.Model and v.(RegisterResp).Model both become Model, so renaming the
// closure's locals never perturbs the signature.
func canon(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		base := canonBase(v.X)
		if base == "" {
			return v.Sel.Name
		}
		return base + "." + v.Sel.Name
	case *ast.TypeAssertExpr:
		return canon(v.X)
	case *ast.CallExpr:
		args := make([]string, len(v.Args))
		for i, a := range v.Args {
			args[i] = canon(a)
		}
		return canon(v.Fun) + "(" + strings.Join(args, ",") + ")"
	case *ast.BasicLit:
		return v.Value
	case *ast.IndexExpr:
		return canon(v.X) + "[" + canon(v.Index) + "]"
	case *ast.UnaryExpr:
		return canon(v.X)
	case *ast.StarExpr:
		return canon(v.X)
	case *ast.ParenExpr:
		return canon(v.X)
	case *ast.BinaryExpr:
		return canon(v.X) + v.Op.String() + canon(v.Y)
	case *ast.ArrayType, *ast.MapType, *ast.StructType, *ast.InterfaceType, *ast.FuncType:
		return "T"
	}
	return "?"
}

// canonBase is canon for a selector's base: plain locals and type
// assertions over them vanish, deeper paths keep their tail.
func canonBase(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return ""
	case *ast.TypeAssertExpr:
		return canonBase(v.X)
	case *ast.ParenExpr:
		return canonBase(v.X)
	default:
		return canon(v)
	}
}

// LoadManifest reads and parses the manifest at path; a missing file is an
// empty manifest (first generation), not an error.
func LoadManifest(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return parseManifest(data)
}

// parseManifest decodes manifest bytes: one tab-separated
// id/type/hash/signature entry per line, #-comments and blanks skipped.
func parseManifest(data []byte) ([]Entry, error) {
	var out []Entry
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("wirefrozen: manifest line %d: want 4 tab-separated fields, got %d", i+1, len(parts))
		}
		id, err := strconv.ParseUint(parts[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("wirefrozen: manifest line %d: bad codec ID %q", i+1, parts[0])
		}
		out = append(out, Entry{ID: id, Type: parts[1], Hash: parts[2], Sig: parts[3]})
	}
	return out, nil
}

// FormatManifest renders entries as manifest bytes, sorted by ID.
func FormatManifest(entries []Entry) []byte {
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].ID != sorted[j].ID {
			return sorted[i].ID < sorted[j].ID
		}
		return sorted[i].Type < sorted[j].Type
	})
	var b strings.Builder
	b.WriteString("# wire.manifest — frozen rpc codec registry (wirefrozen analyzer).\n")
	b.WriteString("# Codec IDs and encoded field order are wire contract: append-only.\n")
	b.WriteString("# Regenerate with: go run ./cmd/leimevet -write-manifest ./...\n")
	b.WriteString("# id\ttype\tsha256[:12]\tsignature\n")
	for _, e := range sorted {
		fmt.Fprintf(&b, "%d\t%s\t%s\t%s\n", e.ID, e.Type, e.Hash, e.Sig)
	}
	return []byte(b.String())
}

// ExtractPackages collects registrations from every loaded package,
// discarding diagnostics: it is the regeneration path (leimevet
// -write-manifest), where the manifest is being rebuilt rather than
// checked.
func ExtractPackages(pkgs []*analysis.Package) []Entry {
	var out []Entry
	for _, pkg := range pkgs {
		pass := &analysis.Pass{
			Analyzer:  Analyzer,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Report:    func(analysis.Diagnostic) {},
		}
		out = append(out, extract(pass)...)
	}
	return out
}

// MergeManifest replaces the owned packages' entries with the freshly
// extracted ones, keeping foreign entries (packages outside this analysis
// run) frozen as-is.
func MergeManifest(existing []Entry, owned map[string]bool, regs []Entry) []Entry {
	var out []Entry
	for _, e := range existing {
		if !owned[e.pkgPath()] {
			out = append(out, e)
		}
	}
	return append(out, regs...)
}
