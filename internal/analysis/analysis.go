// Package analysis is the repo's static-analysis framework: a small,
// dependency-free port of the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic, SuggestedFix) plus a source-level package
// loader, a //lint:ignore suppression layer, and a fix applier. The repo
// builds offline with a zero-dependency go.mod, so instead of importing
// x/tools the framework typechecks packages from source with go/types and
// resolves imports against the module root and GOROOT (including GOROOT's
// vendored dependencies).
//
// Analyzers live in subpackages (determinism, unitsafety, lockdiscipline,
// wireerrors, ctxfirst, missingdocs) and are driven by cmd/leimevet; each
// has an analysistest suite under its testdata/src tree.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check: a name diagnostics are attributed
// to (and that //lint:ignore directives reference), documentation, and the
// Run function applied once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the check to one package, reporting findings through
	// pass.Report. The returned value is unused by the driver but kept for
	// API parity with x/tools analyzers.
	Run func(pass *Pass) (any, error)
}

// Pass carries one analyzed package through an Analyzer.Run invocation.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed files, including in-package _test.go
	// files when the loader was asked for them.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// TypesInfo holds the typechecker's expression and identifier facts.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
	// Facts is the cross-package fact store shared by every pass of one
	// Run invocation. Run analyzes packages in dependency order, so facts
	// a pass exports about its own symbols are visible to every pass that
	// imports that package later in the same run.
	Facts *Facts
}

// Facts accumulates analyzer conclusions about named symbols across
// packages. Facts are keyed by (analyzer, canonical symbol name) strings
// rather than types.Object identity because the loader may materialize one
// package under two distinct type universes (once as an analysis target,
// once as a dependency); the FullName string is the same in both.
type Facts struct {
	m map[factKey]any
}

type factKey struct {
	analyzer string
	symbol   string
}

// newFacts returns an empty fact store.
func newFacts() *Facts { return &Facts{m: map[factKey]any{}} }

// symbolName canonicalizes obj into the cross-universe fact key: the
// FullName for functions and methods, package-path-qualified name for
// everything else package-scoped.
func symbolName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// ExportFact records a fact about obj on behalf of this pass's analyzer.
func (p *Pass) ExportFact(obj types.Object, v any) {
	if p.Facts == nil || obj == nil {
		return
	}
	p.Facts.m[factKey{p.Analyzer.Name, symbolName(obj)}] = v
}

// ImportFact retrieves the fact this pass's analyzer exported about obj in
// an earlier (dependency) pass, if any.
func (p *Pass) ImportFact(obj types.Object) (any, bool) {
	if p.Facts == nil || obj == nil {
		return nil, false
	}
	v, ok := p.Facts.m[factKey{p.Analyzer.Name, symbolName(obj)}]
	return v, ok
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos falls in a _test.go file, letting
// analyzers exempt test-only code from production invariants.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding: a position, a message, and zero or more
// machine-applicable fixes.
type Diagnostic struct {
	// Pos is where the problem starts.
	Pos token.Pos
	// End optionally marks where it stops; NoPos when unknown.
	End token.Pos
	// Message states the violated invariant and, ideally, the remedy.
	Message string
	// SuggestedFixes are optional rewrites the driver can apply with -fix.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one self-contained rewrite curing a diagnostic.
type SuggestedFix struct {
	// Message describes the rewrite.
	Message string
	// TextEdits are the byte-range replacements; they must not overlap.
	TextEdits []TextEdit
}

// TextEdit replaces the source bytes in [Pos, End) with NewText.
type TextEdit struct {
	// Pos is the first position replaced.
	Pos token.Pos
	// End is the position after the last byte replaced.
	End token.Pos
	// File, when non-empty, names a file whose entire content becomes
	// NewText (created if absent); Pos and End are ignored. This is how
	// fixes regenerate whole non-Go artifacts such as wire.manifest.
	File string
	// NewText is the replacement text.
	NewText []byte
}
