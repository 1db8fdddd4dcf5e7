// Command leimevet is the repo's multichecker: it loads packages from
// source and applies every project-specific analyzer in one pass —
// determinism, unitsafety, lockdiscipline, wireerrors, the ctxfirst and
// missingdocs checks that replaced cmd/ctxcheck and cmd/doccheck, and
// the invariant suite: wirefrozen (codec registry vs
// the committed wire.manifest), clockpure (no wall clock in model-clock
// packages), spanbalance (every started span ends), atomicmix (no mixed
// atomic/plain field access) and deadlinefwd (forwards propagate the
// incoming deadline). It prints one line per finding and exits non-zero
// when any survive the //lint:ignore suppression filter.
//
// Usage:
//
//	leimevet [-json] [-fix] [-write-manifest] [-tests=false] [pattern ...]
//
// Patterns are directories, "./..."-style recursive patterns, or import
// paths; the default is "./..." from the enclosing module root. -json
// emits a JSON object carrying the findings, per-analyzer counts, the
// wire.manifest hash and the size of the loaded code (non-test lines and
// exported top-level declarations). -fix applies each finding's
// suggested fix (the errors.Is rewrites and wire.manifest regeneration)
// to the files in place and reports what remains unfixable. -write-manifest skips
// analysis entirely and rewrites wire.manifest from the loaded packages'
// rpc.RegisterCodec calls — CI runs it and fails on any resulting diff.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"leime/internal/analysis"
	"leime/internal/analysis/atomicmix"
	"leime/internal/analysis/clockpure"
	"leime/internal/analysis/ctxfirst"
	"leime/internal/analysis/deadlinefwd"
	"leime/internal/analysis/determinism"
	"leime/internal/analysis/lockdiscipline"
	"leime/internal/analysis/missingdocs"
	"leime/internal/analysis/spanbalance"
	"leime/internal/analysis/unitsafety"
	"leime/internal/analysis/wireerrors"
	"leime/internal/analysis/wirefrozen"
)

// analyzers is the full suite, in the order findings are attributed.
var analyzers = []*analysis.Analyzer{
	atomicmix.Analyzer,
	clockpure.Analyzer,
	ctxfirst.Analyzer,
	deadlinefwd.Analyzer,
	determinism.Analyzer,
	lockdiscipline.Analyzer,
	missingdocs.Analyzer,
	spanbalance.Analyzer,
	unitsafety.Analyzer,
	wireerrors.Analyzer,
	wirefrozen.Analyzer,
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a JSON report object")
	fix := flag.Bool("fix", false, "apply suggested fixes in place")
	writeManifest := flag.Bool("write-manifest", false, "regenerate wire.manifest from the loaded packages and exit")
	tests := flag.Bool("tests", true, "include _test.go files in analysis")
	flag.Parse()
	if err := run(flag.Args(), *jsonOut, *fix, *writeManifest, *tests); err != nil {
		fmt.Fprintln(os.Stderr, "leimevet:", err)
		os.Exit(2)
	}
}

func run(patterns []string, jsonOut, fix, writeManifest, tests bool) error {
	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	wirefrozen.ManifestPath = filepath.Join(root, "wire.manifest")
	loader := analysis.NewLoader()
	if err := loader.SetModule(root); err != nil {
		return err
	}
	loader.IncludeTests = tests

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := expandPatterns(loader, root, patterns)
	if err != nil {
		return err
	}
	var pkgs []*analysis.Package
	for _, path := range paths {
		loaded, err := loader.Load(path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, loaded...)
	}
	if writeManifest {
		return regenerateManifest(pkgs)
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		return err
	}
	if fix {
		return applyFixes(findings)
	}
	if jsonOut {
		return emitJSON(findings, pkgs)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "leimevet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	return nil
}

// regenerateManifest rewrites wire.manifest from the loaded packages'
// registrations, preserving entries owned by packages outside this load.
func regenerateManifest(pkgs []*analysis.Package) error {
	existing, err := wirefrozen.LoadManifest(wirefrozen.ManifestPath)
	if err != nil {
		return err
	}
	owned := map[string]bool{}
	for _, p := range pkgs {
		owned[p.Pkg.Path()] = true
	}
	regs := wirefrozen.ExtractPackages(pkgs)
	byID := map[uint64]string{}
	for _, e := range regs {
		if prev, dup := byID[e.ID]; dup && prev != e.Type {
			return fmt.Errorf("codec ID %d registered for both %s and %s; resolve the collision before freezing", e.ID, prev, e.Type)
		}
		byID[e.ID] = e.Type
	}
	merged := wirefrozen.MergeManifest(existing, owned, regs)
	if err := os.WriteFile(wirefrozen.ManifestPath, wirefrozen.FormatManifest(merged), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "leimevet: wrote %s (%d codec IDs)\n", wirefrozen.ManifestPath, len(merged))
	return nil
}

// applyFixes rewrites files with every suggested fix, then lists what has
// no machine fix and must be addressed by hand.
func applyFixes(findings []analysis.Finding) error {
	fixed, err := analysis.ApplyFixes(findings)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "leimevet: applied %d fix(es)\n", fixed)
	unfixed := 0
	for _, f := range findings {
		if len(f.Diag.SuggestedFixes) == 0 {
			fmt.Println(f)
			unfixed++
		}
	}
	if unfixed > 0 {
		fmt.Fprintf(os.Stderr, "leimevet: %d finding(s) without fixes remain\n", unfixed)
		os.Exit(1)
	}
	return nil
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	// Analyzer names the check.
	Analyzer string `json:"analyzer"`
	// Pos is the file:line:col location.
	Pos string `json:"pos"`
	// Message is the diagnostic text.
	Message string `json:"message"`
	// Fixable reports whether -fix can rewrite it.
	Fixable bool `json:"fixable"`
}

// jsonReport is the -json output: the findings plus per-analyzer counts
// (zero entries included, so a clean run still enumerates the suite), the
// sha256 of the committed wire.manifest ("" when absent) and the loaded
// code's size (see codeSize).
type jsonReport struct {
	Findings      []jsonFinding  `json:"findings"`
	Counts        map[string]int `json:"counts"`
	Manifest      string         `json:"wire_manifest_sha256"`
	NontestLOC    int            `json:"nontest_loc"`
	ExportedDecls int            `json:"exported_decls"`
}

func emitJSON(findings []analysis.Finding, pkgs []*analysis.Package) error {
	report := jsonReport{
		Findings: make([]jsonFinding, 0, len(findings)),
		Counts:   make(map[string]int, len(analyzers)),
	}
	report.NontestLOC, report.ExportedDecls = codeSize(pkgs)
	for _, a := range analyzers {
		report.Counts[a.Name] = 0
	}
	for _, f := range findings {
		report.Findings = append(report.Findings, jsonFinding{
			Analyzer: f.Analyzer,
			Pos:      f.Position.String(),
			Message:  f.Message,
			Fixable:  len(f.Diag.SuggestedFixes) > 0,
		})
		report.Counts[f.Analyzer]++
	}
	if data, err := os.ReadFile(wirefrozen.ManifestPath); err == nil {
		report.Manifest = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	return nil
}

// codeSize measures the loaded packages' non-test Go files: their lines,
// and their exported top-level declarations — funcs, methods on exported
// types, types, vars and consts, one per declared name. _test.go files are
// skipped; testdata trees are never loaded.
func codeSize(pkgs []*analysis.Package) (loc, exported int) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			file := p.Fset.File(f.Pos())
			if strings.HasSuffix(file.Name(), "_test.go") {
				continue
			}
			loc += file.LineCount()
			for _, decl := range f.Decls {
				exported += exportedNames(decl)
			}
		}
	}
	return loc, exported
}

// exportedNames counts the exported names one top-level declaration adds
// to its package's API.
func exportedNames(decl ast.Decl) int {
	n := 0
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && (d.Recv == nil || exportedReceiver(d.Recv.List[0].Type)) {
			n++
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					n++
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() {
						n++
					}
				}
			}
		}
	}
	return n
}

// exportedReceiver reports whether a method receiver's base type — behind
// a pointer and type parameters — is exported.
func exportedReceiver(t ast.Expr) bool {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// expandPatterns turns CLI patterns into import paths. A trailing "/..."
// recurses; other patterns name one directory or import path.
func expandPatterns(loader *analysis.Loader, root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base, err := patternDir(root, rest)
			if err != nil {
				return nil, err
			}
			if err := walkPackages(root, base, loader.ModuleName, add); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(pat, loader.ModuleName) {
			add(pat)
			continue
		}
		dir, err := patternDir(root, pat)
		if err != nil {
			return nil, err
		}
		add(importPath(root, dir, loader.ModuleName))
	}
	sort.Strings(out)
	return out, nil
}

// patternDir resolves a non-recursive pattern to an absolute directory.
func patternDir(root, pat string) (string, error) {
	if pat == "" || pat == "." {
		return root, nil
	}
	dir := pat
	if !filepath.IsAbs(dir) {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return "", err
		}
		dir = abs
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return "", fmt.Errorf("pattern %q: not a directory", pat)
	}
	return dir, nil
}

// walkPackages invokes add for every directory under base that contains Go
// files, skipping hidden, vendor and testdata trees.
func walkPackages(root, base, module string, add func(string)) error {
	return filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			add(importPath(root, filepath.Dir(path), module))
		}
		return nil
	})
}

// importPath maps a directory under root to its module import path.
func importPath(root, dir, module string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}
