// Package determinism protects the repo's bit-reproducibility guarantees.
// The pin tests (byte-identical simulator output, zero-value-is-exact-FIFO,
// solver/sim cross-checks) only hold if the model and simulation packages
// never read wall clocks or shared randomness, and if nothing anywhere
// lets Go's randomized map iteration order leak into output ordering.
//
// Two invariant tiers:
//
//   - In the pure packages (PurePaths): no time.Now/Since/Sleep/timers, and
//     no math/rand package-level functions — randomness must flow through a
//     seed-injected *rand.Rand so the same seed replays the same run.
//   - Everywhere: a range over a map must not feed an ordered sink — no
//     appends to outer slices, no conditional returns of loop-derived
//     values, no formatted output from inside the loop body. Iteration
//     order varies run to run, so each of those makes output depend on the
//     map's hash seed.
//
// _test.go files are exempt: tests own their clocks and frequently iterate
// maps to assert set membership.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"leime/internal/analysis"
)

// PurePaths lists the packages that must stay free of wall clocks and
// global randomness. Simulation, solver, model, schedule-synthesis and
// metric code is pure; the runtime/rpc/telemetry substrate and the live
// load driver are wall-clock by nature and are covered only by the
// map-order tier.
var PurePaths = []string{
	"leime/cmd/leime-sim",
	"leime/internal/cluster",
	"leime/internal/confidence",
	"leime/internal/control",
	"leime/internal/dataset",
	"leime/internal/exitsetting",
	"leime/internal/loadgen",
	"leime/internal/metrics",
	"leime/internal/model",
	"leime/internal/offload",
	"leime/internal/partition",
	"leime/internal/sim",
	"leime/internal/trace",
	// "pure" is the analysistest fixture stand-in for this set.
	"pure",
}

// Analyzer flags wall-clock and unseeded-randomness use in pure packages
// and order-dependent map iteration everywhere.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "pure packages must be bit-deterministic; map iteration must not order output",
	Run:  run,
}

// wallClock names the time package functions that read or wait on the wall
// clock. Duration arithmetic (time.Duration, constants) stays legal.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandOK names the math/rand package-level functions that construct
// explicit sources rather than consulting the shared global one.
var seededRandOK = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *analysis.Pass) (any, error) {
	pure := isPure(pass.Pkg.Path())
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if pure {
			checkPure(pass, f)
		}
		checkMapOrder(pass, f)
	}
	return nil, nil
}

func isPure(path string) bool {
	for _, p := range PurePaths {
		if path == p {
			return true
		}
	}
	return false
}

// checkPure reports wall-clock reads and global-rand calls in one file of a
// pure package.
func checkPure(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgName, ok := importedPackage(pass, sel)
		if !ok {
			return true
		}
		// Only function references matter: naming the rand.Rand or
		// time.Duration types is how seed injection is written down.
		if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
			return true
		}
		switch {
		case pkgName == "time" && wallClock[sel.Sel.Name]:
			pass.Reportf(sel.Pos(), "pure package %s reads the wall clock via time.%s; thread model time explicitly", pass.Pkg.Path(), sel.Sel.Name)
		case pkgName == "math/rand" && !seededRandOK[sel.Sel.Name]:
			pass.Reportf(sel.Pos(), "pure package %s uses the global rand source via rand.%s; inject a seeded *rand.Rand", pass.Pkg.Path(), sel.Sel.Name)
		}
		return true
	})
}

// importedPackage resolves a selector's base to an imported package name
// ("time", "math/rand"), or reports false for ordinary field/method access.
func importedPackage(pass *analysis.Pass, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok {
		return "", false
	}
	pkg, ok := obj.(*types.PkgName)
	if !ok {
		return "", false
	}
	return pkg.Imported().Path(), true
}

// checkMapOrder flags range-over-map loops whose body feeds an ordered
// sink: appending to a slice declared outside the loop, returning a value
// derived from the iteration variables, or writing formatted output. The
// collect-then-sort idiom stays legal: an append whose target is passed to
// a sort/slices call later in the same statement list is not reported.
func checkMapOrder(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			return true
		}
		for i, stmt := range list {
			if rng, ok := stmt.(*ast.RangeStmt); ok && isMapRange(pass, rng) {
				checkOneMapRange(pass, rng, list[i+1:])
			}
		}
		return true
	})
}

func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// checkOneMapRange inspects one map-range body; rest is the remainder of
// the enclosing statement list, consulted for the sorted-afterwards
// exemption.
func checkOneMapRange(pass *analysis.Pass, rng *ast.RangeStmt, rest []ast.Stmt) {
	loopVars := rangeVars(pass, rng)
	ast.Inspect(rng.Body, func(m ast.Node) bool {
		switch stmt := m.(type) {
		case *ast.RangeStmt:
			// A nested range over another map gets its own visit from the
			// enclosing statement-list walk; skip it here so its body is
			// not double-reported. Ranges over slices still descend — an
			// append inside them leaks the outer map's order.
			if stmt != rng && isMapRange(pass, stmt) {
				return false
			}
		case *ast.AssignStmt:
			for _, rhs := range stmt.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || appendsToLoopLocal(pass, stmt, rng) {
					continue
				}
				if sortedAfter(pass, rest, appendTarget(pass, stmt)) {
					continue
				}
				pass.Reportf(stmt.Pos(), "append inside range over map: iteration order is random, so the slice order changes run to run; collect and sort the keys first")
			}
		case *ast.ReturnStmt:
			if referencesAny(pass, stmt, loopVars) {
				pass.Reportf(stmt.Pos(), "return of a loop-derived value inside range over map: which element wins depends on random iteration order; iterate sorted keys instead")
			}
		case *ast.CallExpr:
			if name, ok := printedOutput(pass, stmt); ok {
				pass.Reportf(stmt.Pos(), "%s inside range over map writes output in random iteration order; iterate sorted keys instead", name)
			}
		}
		return true
	})
}

// appendTarget resolves the object a single-target append assigns to.
func appendTarget(pass *analysis.Pass, stmt *ast.AssignStmt) types.Object {
	if len(stmt.Lhs) != 1 {
		return nil
	}
	id, ok := stmt.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// sortedAfter reports whether a later statement in the same list passes
// obj to the sort or slices package, which launders the random order away.
func sortedAfter(pass *analysis.Pass, rest []ast.Stmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := importedPackage(pass, sel)
			if !ok || (pkg != "sort" && pkg != "slices") {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// rangeVars collects the key/value objects a range statement binds.
func rangeVars(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			out[obj] = true // "for k = range m" re-using an outer variable
		}
	}
	return out
}

// referencesAny reports whether node mentions any of the given objects.
func referencesAny(pass *analysis.Pass, node ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendsToLoopLocal reports whether the append target was declared inside
// the range body itself — those appends cannot leak ordering out.
func appendsToLoopLocal(pass *analysis.Pass, stmt *ast.AssignStmt, rng *ast.RangeStmt) bool {
	if len(stmt.Lhs) != 1 {
		return false
	}
	id, ok := stmt.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	return obj != nil && rng.Body.Pos() <= obj.Pos() && obj.Pos() < rng.Body.End()
}

// printedOutput reports whether call writes human-ordered output: fmt
// printing or builder/buffer writes.
func printedOutput(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := importedPackage(pass, sel); ok {
		if pkg == "fmt" && strings.HasPrefix(sel.Sel.Name, "Print") {
			return "fmt." + sel.Sel.Name, true
		}
		if pkg == "fmt" && strings.HasPrefix(sel.Sel.Name, "Fprint") {
			return "fmt." + sel.Sel.Name, true
		}
		return "", false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return "", false
	}
	recv := selection.Recv()
	for _, named := range []string{"strings.Builder", "bytes.Buffer"} {
		if strings.TrimPrefix(recv.String(), "*") == named && strings.HasPrefix(sel.Sel.Name, "Write") {
			return named + "." + sel.Sel.Name, true
		}
	}
	return "", false
}
