package wirefrozen

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"leime/internal/analysis"
	"leime/internal/analysis/analysistest"
)

// loadFixture loads one fixture package from testdata/src.
func loadFixture(t *testing.T, path string) *analysis.Package {
	t.Helper()
	loader := analysis.NewLoader()
	loader.Overlay = filepath.Join("testdata", "src")
	pkgs, err := loader.Load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	return pkgs[0]
}

// extractFixture fingerprints a fixture package's registrations.
func extractFixture(t *testing.T, path string) []Entry {
	t.Helper()
	pkg := loadFixture(t, path)
	pass := &analysis.Pass{
		Analyzer:  Analyzer,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.Info,
		Report:    func(analysis.Diagnostic) {},
	}
	return extract(pass)
}

// withManifest points ManifestPath at a temp manifest holding entries for
// the duration of the test.
func withManifest(t *testing.T, entries []Entry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wire.manifest")
	if entries != nil {
		if err := os.WriteFile(path, FormatManifest(entries), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prev := ManifestPath
	ManifestPath = path
	t.Cleanup(func() { ManifestPath = prev })
	return path
}

// TestCleanFixture is the negative case: a manifest generated from the
// code it describes yields no diagnostics.
func TestCleanFixture(t *testing.T) {
	withManifest(t, extractFixture(t, "wireok"))
	analysistest.Run(t, "testdata", Analyzer, "wireok")
}

// TestViolations synthesizes a manifest that disagrees with the wirebad
// fixture in every detectable way: a rebound ID, a changed signature, an
// unrecorded appendix, and an orphaned entry.
func TestViolations(t *testing.T) {
	entries := extractFixture(t, "wirebad")
	var manifest []Entry
	for _, e := range entries {
		switch e.ID {
		case 1:
			e.Type = "wirebad.OldReq" // rebinds ID 1
			manifest = append(manifest, e)
		case 2:
			e.Hash = "0000deadbeef" // drifted signature
			e.Sig = "String(A) Uvarint(B)"
			manifest = append(manifest, e)
		case 3:
			// dropped: the code's registration becomes an unrecorded append
		case 5:
			if len(manifest) == 0 || manifest[len(manifest)-1].ID != 5 {
				manifest = append(manifest, e) // keep the first, the dup is in-code
			}
		}
	}
	manifest = append(manifest, Entry{ID: 4, Type: "wirebad.GoneReq", Hash: "0", Sig: "Int(N)"})
	withManifest(t, manifest)
	analysistest.Run(t, "testdata", Analyzer, "wirebad")
}

// TestManifestRoundTrip pins Format/Parse as inverses.
func TestManifestRoundTrip(t *testing.T) {
	entries := extractFixture(t, "wireok")
	parsed, err := parseManifest(FormatManifest(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(entries) {
		t.Fatalf("round trip: got %d entries, want %d", len(parsed), len(entries))
	}
	for i := range parsed {
		e, p := entries[i], parsed[i]
		e.pos = nil
		if !reflect.DeepEqual(e, p) {
			t.Errorf("entry %d: round trip %+v != extracted %+v", i, p, e)
		}
	}
}

// TestRegenerateFixCreatesManifest covers the -fix regeneration path end
// to end: with no manifest on disk every registration is an unrecorded
// append carrying an identical whole-file regeneration fix; applying the
// fixes creates the manifest, and a re-run is clean.
func TestRegenerateFixCreatesManifest(t *testing.T) {
	path := withManifest(t, nil) // ManifestPath set, no file written
	pkg := loadFixture(t, "wireok")

	findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("missing manifest: got %d findings, want 3 (one per registration): %v", len(findings), findings)
	}
	for _, f := range findings {
		if len(f.Diag.SuggestedFixes) == 0 {
			t.Fatalf("finding %v carries no regeneration fix", f)
		}
	}

	fixed, err := analysis.ApplyFixes(findings)
	if err != nil {
		t.Fatalf("applying regeneration fixes: %v", err)
	}
	if fixed != 3 {
		t.Fatalf("ApplyFixes fixed %d findings, want 3", fixed)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("manifest not created: %v", err)
	}

	findings, err = analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("after regeneration, want clean run, got: %v", findings)
	}
}
