package analysis

import (
	"go/token"
	"sort"
)

// Finding is one reported diagnostic bound to its package, position-resolved
// and past the suppression filter.
type Finding struct {
	// Analyzer names the check that produced the finding.
	Analyzer string
	// Position is the resolved file:line:column location.
	Position token.Position
	// Message is the diagnostic text.
	Message string
	// Diag is the raw diagnostic, kept for SuggestedFixes.
	Diag Diagnostic
	// Pkg is the package the finding was reported against.
	Pkg *Package
}

// String renders the finding as a "file:line:col: message (analyzer)"
// diagnostic line.
func (f Finding) String() string {
	return f.Position.String() + ": " + f.Message + " (" + f.Analyzer + ")"
}

// Run applies every analyzer to every package, resolves positions, drops
// findings silenced by //lint:ignore directives, surfaces malformed
// directives as findings of their own, and returns the remainder sorted by
// position. Packages are analyzed in dependency order so facts exported
// about a package's symbols are in the store before any importer's pass.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	facts := newFacts()
	var all []Finding
	for _, pkg := range dependencyOrder(pkgs) {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
				Facts:     facts,
			}
			pkg, a := pkg, a
			pass.Report = func(d Diagnostic) {
				all = append(all, Finding{
					Analyzer: a.Name,
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
					Diag:     d,
					Pkg:      pkg,
				})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	ix, malformed := buildIgnoreIndex(pkgs)
	out := malformed
	for _, f := range all {
		if !ix.suppressed(f) {
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out, nil
}

// sortFindings orders findings by file, line, column, then analyzer.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// dependencyOrder sorts the loaded packages so every package follows the
// packages it imports (restricted to the loaded set; imports outside it are
// typechecked dependencies, not analysis targets). The input order breaks
// remaining ties, keeping single-package runs untouched.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Pkg.Path()] = p
	}
	out := make([]*Package, 0, len(pkgs))
	seen := make(map[*Package]bool, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Pkg.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
