// Package clockpure enforces wall-clock freedom in the model-clock
// packages across package boundaries. The determinism analyzer catches a
// direct time.Now in a pure package; it cannot see a helper in another
// package that reads the clock on the pure package's behalf. clockpure
// computes a "reaches the wall clock" fact for every function in every
// analyzed package — seeded by direct time/global-rand calls, closed over
// intra-package calls by fixpoint, and propagated across packages through
// the fact store (analysis.Run analyzes dependencies first) — then flags
// every call site in a model-clock package whose callee carries the fact.
//
// Cross-package propagation needs the callee's package in the same run:
// `leimevet ./...` (what CI runs) sees the whole module; a single-package
// invocation degrades to intra-package transitive checking.
package clockpure

import (
	"fmt"
	"go/ast"
	"go/types"

	"leime/internal/analysis"
)

// modelClockPackages lists the model-clock packages where reaching the wall clock
// breaks same-seed replay. internal/loadgen is deliberately absent: its
// live half paces real RPCs by design (the deterministic half is guarded
// by determinism's purePaths entry plus the file-level opt-out).
var modelClockPackages = []string{
	"leime/internal/control",
	"leime/internal/sim",
	"leime/internal/partition",
	"leime/internal/exitsetting",
	"leime/internal/offload",
	// "clocky" is the analysistest fixture stand-in for this set.
	"clocky",
}

// Analyzer flags model-clock packages that reach the wall clock or the
// global rand source, directly or through helpers in any analyzed package.
var Analyzer = &analysis.Analyzer{
	Name: "clockpure",
	Doc:  "model-clock packages must not reach the wall clock, even transitively",
	Run:  run,
}

// wallClock names the time functions that read or wait on the wall clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandOK names the math/rand constructors that take an explicit
// source instead of consulting the shared global one.
var seededRandOK = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// taint is the fact exported about a clock-reaching function: how it gets
// to the wall clock, e.g. "time.Now" or "calls pkg.Helper (time.Sleep)".
type taint struct {
	via string
}

func run(pass *analysis.Pass) (any, error) {
	// Pass 1: per-function direct taints and the intra-package call graph.
	// Function literals are attributed to their enclosing declaration: a
	// closure reading the clock taints the function that builds it.
	taints := map[*types.Func]string{}       // function -> how it reaches the clock
	calls := map[*types.Func][]*types.Func{} // caller -> same-package callees
	var decls []*types.Func
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, fn)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if via, bad := directClockCall(pass, call); bad {
					if _, seen := taints[fn]; !seen {
						taints[fn] = via
					}
					return true
				}
				callee := calleeFunc(pass, call)
				if callee == nil {
					return true
				}
				if callee.Pkg() == pass.Pkg {
					calls[fn] = append(calls[fn], callee)
				} else if fact, ok := pass.ImportFact(callee); ok {
					if _, seen := taints[fn]; !seen {
						taints[fn] = fmt.Sprintf("calls %s (%s)", callee.FullName(), fact.(taint).via)
					}
				}
				return true
			})
		}
	}

	// Pass 2: intra-package fixpoint — a function calling a tainted
	// same-package function is tainted too.
	for changed := true; changed; {
		changed = false
		for _, fn := range decls {
			if _, done := taints[fn]; done {
				continue
			}
			for _, callee := range calls[fn] {
				if via, bad := taints[callee]; bad {
					taints[fn] = fmt.Sprintf("calls %s (%s)", callee.FullName(), via)
					changed = true
					break
				}
			}
		}
	}
	for fn, via := range taints {
		pass.ExportFact(fn, taint{via: via})
	}

	if !isModelClock(pass.Pkg.Path()) {
		return nil, nil
	}

	// Pass 3: report every clock-reaching call site in this package.
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if via, bad := directClockCall(pass, call); bad {
				pass.Reportf(call.Pos(), "model-clock package %s reads %s; thread model time (or a seeded source) explicitly", pass.Pkg.Path(), via)
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil || callee.Pkg() == pass.Pkg {
				return true // same-package helpers report at their own guts
			}
			if fact, ok := pass.ImportFact(callee); ok {
				pass.Reportf(call.Pos(), "model-clock package %s reaches the wall clock via %s (%s)", pass.Pkg.Path(), callee.FullName(), fact.(taint).via)
			}
			return true
		})
	}
	return nil, nil
}

func isModelClock(path string) bool {
	for _, p := range modelClockPackages {
		if path == p {
			return true
		}
	}
	return false
}

// directClockCall reports whether call invokes a wall-clock time function
// or a global-source math/rand function, and names it.
func directClockCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
		return "", false
	}
	switch pkgName.Imported().Path() {
	case "time":
		if wallClock[sel.Sel.Name] {
			return "time." + sel.Sel.Name, true
		}
	case "math/rand":
		if !seededRandOK[sel.Sel.Name] {
			return "the global rand source via rand." + sel.Sel.Name, true
		}
	}
	return "", false
}

// calleeFunc resolves a call's static callee; nil for builtins, function
// values, and interface methods.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
