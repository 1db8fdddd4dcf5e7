package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leime/internal/analysis"
	"leime/internal/analysis/wirefrozen"
)

// loadRepo loads every package in the module, mirroring what `leimevet
// ./...` analyzes in CI.
func loadRepo(t *testing.T, tests bool) (string, []*analysis.Package) {
	t.Helper()
	root, err := findModuleRoot()
	if err != nil {
		t.Fatalf("findModuleRoot: %v", err)
	}
	loader := analysis.NewLoader()
	if err := loader.SetModule(root); err != nil {
		t.Fatalf("SetModule: %v", err)
	}
	loader.IncludeTests = tests
	paths, err := expandPatterns(loader, root, []string{"./..."})
	if err != nil {
		t.Fatalf("expandPatterns: %v", err)
	}
	var pkgs []*analysis.Package
	for _, path := range paths {
		loaded, err := loader.Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		pkgs = append(pkgs, loaded...)
	}
	return root, pkgs
}

// TestRepoIsInvariantClean gates the audit: the entire repository must stay
// clean under every analyzer in the suite (CI runs cmd/leimevet for the
// same guarantee on every push). One subtest per analyzer so a regression
// names the invariant it broke.
func TestRepoIsInvariantClean(t *testing.T) {
	root, pkgs := loadRepo(t, true)
	prev := wirefrozen.ManifestPath
	wirefrozen.ManifestPath = filepath.Join(root, "wire.manifest")
	defer func() { wirefrozen.ManifestPath = prev }()

	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byAnalyzer := map[string][]analysis.Finding{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], f)
	}
	for _, a := range analyzers {
		t.Run(a.Name, func(t *testing.T) {
			for _, f := range byAnalyzer[a.Name] {
				t.Errorf("%s", f)
			}
		})
		delete(byAnalyzer, a.Name)
	}
	// Malformed //lint:ignore directives surface under their own name.
	for name, fs := range byAnalyzer {
		for _, f := range fs {
			t.Errorf("%s: %s", name, f)
		}
	}
}

// mutationLoader is shared by the wirefrozen mutation tests. Only
// internal/runtime differs between mutations and Load type-checks its
// target afresh every time, so the dependencies the first test
// type-checks are cached for the others.
var mutationLoader *analysis.Loader

// mutateRuntime copies internal/runtime into an overlay with one textual
// mutation applied to codec.go and loads it against the real module (all
// other imports resolve normally).
func mutateRuntime(t *testing.T, old, new string) []*analysis.Package {
	t.Helper()
	root, err := findModuleRoot()
	if err != nil {
		t.Fatalf("findModuleRoot: %v", err)
	}
	srcDir := filepath.Join(root, "internal", "runtime")
	overlay := t.TempDir()
	dstDir := filepath.Join(overlay, "leime", "internal", "runtime")
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "codec.go" {
			src := string(data)
			if !strings.Contains(src, old) {
				t.Fatalf("codec.go no longer contains %q; update the mutation test", old)
			}
			data = []byte(strings.Replace(src, old, new, 1))
			mutated = true
		}
		if err := os.WriteFile(filepath.Join(dstDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !mutated {
		t.Fatal("internal/runtime/codec.go not found")
	}
	if mutationLoader == nil {
		loader := analysis.NewLoader()
		if err := loader.SetModule(root); err != nil {
			t.Fatalf("SetModule: %v", err)
		}
		mutationLoader = loader
	}
	mutationLoader.Overlay = overlay
	pkgs, err := mutationLoader.Load("leime/internal/runtime")
	if err != nil {
		t.Fatalf("Load mutated runtime: %v", err)
	}
	return pkgs
}

// runWirefrozen applies only wirefrozen to the mutated package against the
// committed manifest.
func runWirefrozen(t *testing.T, pkgs []*analysis.Package) []analysis.Finding {
	t.Helper()
	root, err := findModuleRoot()
	if err != nil {
		t.Fatalf("findModuleRoot: %v", err)
	}
	prev := wirefrozen.ManifestPath
	wirefrozen.ManifestPath = filepath.Join(root, "wire.manifest")
	defer func() { wirefrozen.ManifestPath = prev }()
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{wirefrozen.Analyzer})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return findings
}

// wantFinding asserts that some finding message contains the fragment.
func wantFinding(t *testing.T, findings []analysis.Finding, fragment string) {
	t.Helper()
	for _, f := range findings {
		if strings.Contains(f.Message, fragment) {
			return
		}
	}
	t.Errorf("no finding contains %q; got %v", fragment, findings)
}

// TestWirefrozenCatchesIDMove proves the committed manifest is load-bearing:
// moving a registration to a fresh ID orphans the frozen entry and surfaces
// the unfrozen one.
func TestWirefrozenCatchesIDMove(t *testing.T) {
	pkgs := mutateRuntime(t, "codecIDRegisterReq      = 1", "codecIDRegisterReq      = 21")
	findings := runWirefrozen(t, pkgs)
	wantFinding(t, findings, "codec ID 21 (leime/internal/runtime.RegisterReq) is not in wire.manifest")
	wantFinding(t, findings, "wire.manifest entry for codec ID 1")
}

// TestWirefrozenCatchesIDReuse proves reusing a frozen ID for another type
// fails, and that the duplicate in-code binding is reported.
func TestWirefrozenCatchesIDReuse(t *testing.T) {
	pkgs := mutateRuntime(t, "codecIDRegisterResp     = 2", "codecIDRegisterResp     = 1")
	findings := runWirefrozen(t, pkgs)
	wantFinding(t, findings, "codec ID 1 registered twice")
}

// TestWirefrozenCatchesFieldReorder proves the signature freeze: swapping
// two encoded fields changes the fingerprint even though the Go types and
// codec ID are untouched.
func TestWirefrozenCatchesFieldReorder(t *testing.T) {
	pkgs := mutateRuntime(t,
		"e.Float64(r.FLOPS)\n\t\t\te.Float64(r.ArrivalMean)",
		"e.Float64(r.ArrivalMean)\n\t\t\te.Float64(r.FLOPS)")
	findings := runWirefrozen(t, pkgs)
	wantFinding(t, findings, "wire signature of codec ID 1 (leime/internal/runtime.RegisterReq) changed")
}

// TestCodeSizeCountsFixture pins the -json size counters on a fixture
// whose package doc states the expected numbers.
func TestCodeSizeCountsFixture(t *testing.T) {
	loader := analysis.NewLoader()
	loader.Overlay = filepath.Join("testdata", "src")
	loader.IncludeTests = true
	pkgs, err := loader.Load("sizefix")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loc, exported := codeSize(pkgs); loc != 32 || exported != 10 {
		t.Errorf("codeSize = %d lines, %d exported declarations; want 32 and 10", loc, exported)
	}
}
