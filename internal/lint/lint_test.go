package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestResetCompleteFixture(t *testing.T) {
	RunFixture(t, fixtureRoot(t), []*Analyzer{ResetComplete}, "resetcomplete")
}

func TestStateVersionFixture(t *testing.T) {
	RunFixture(t, fixtureRoot(t), []*Analyzer{StateVersion}, "stateversion")
}

func TestPoolLifeFixture(t *testing.T) {
	RunFixture(t, fixtureRoot(t), []*Analyzer{PoolLife}, "poollife")
}

func TestDeterminismFixture(t *testing.T) {
	RunFixture(t, fixtureRoot(t), []*Analyzer{Determinism}, "determinism")
}

// TestDirectivesFixture checks the directives validation pass directly:
// its diagnostics anchor on the directive comments themselves, where the
// `// want` convention cannot follow (a line holds one comment), so the
// expected findings are asserted against lines located by content.
func TestDirectivesFixture(t *testing.T) {
	root := fixtureRoot(t)
	loader := NewLoader(root, "")
	prog, err := loader.Load("directives")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunAnalyzers(prog, []*Analyzer{Directives})
	if err != nil {
		t.Fatalf("running analyzer: %v", err)
	}
	src, err := os.ReadFile(filepath.Join(root, "directives", "a.go"))
	if err != nil {
		t.Fatal(err)
	}
	lineWhere := func(match func(string) bool, desc string) int {
		for i, l := range strings.Split(string(src), "\n") {
			if match(l) {
				return i + 1
			}
		}
		t.Fatalf("fixture line %s not found", desc)
		return 0
	}
	contains := func(substr string) func(string) bool {
		return func(l string) bool { return strings.Contains(l, substr) }
	}
	want := []struct {
		line    int
		message string
	}{
		{lineWhere(contains("keep-accross-reset"), "with the typo'd directive"),
			`unknown gridlint directive "keep-accross-reset"`},
		// gofmt spaces the bare comment to "// gridlint:"; the analyzer
		// trims that space, so both spellings are the same diagnostic.
		{lineWhere(func(l string) bool { return strings.TrimSpace(l) == "// gridlint:" }, "with the bare directive"),
			"comment with no directive word"},
		{lineWhere(contains("var c []int"), "declaring var c"),
			"//gridlint:allow-retain needs a justification"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(want), FormatDiagnostics(diags))
	}
	for i, w := range want {
		if diags[i].Pos.Line != w.line || !strings.Contains(diags[i].Message, w.message) {
			t.Errorf("diagnostic %d = %s; want line %d containing %q", i, diags[i], w.line, w.message)
		}
	}
}

// TestSuiteCleanOnRealTree runs the full analyzer suite over the actual
// module and requires zero diagnostics: the tree must stay lint-clean.
// This is the same check CI's lint job performs through cmd/gridlint; it
// type-checks the whole module (and its std imports) from source, so it is
// skipped in -short runs.
func TestSuiteCleanOnRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "gridrealloc")
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatalf("enumerating module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages found under module root")
	}
	prog, err := loader.Load(pkgs...)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := RunAnalyzers(prog, Analyzers())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	if len(diags) > 0 {
		t.Errorf("gridlint reports %d diagnostics on the tree; it must be clean:\n%s",
			len(diags), FormatDiagnostics(diags))
	}
}

// TestModulePackagesSkipsTestdata guards the loader's package walk: fixture
// trees and hidden directories must not leak into the analyzed set.
func TestModulePackagesSkipsTestdata(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "gridrealloc")
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		if seen[p] {
			t.Errorf("package %s listed twice", p)
		}
		seen[p] = true
		if filepath.Base(p) == "testdata" {
			t.Errorf("testdata leaked into package list: %s", p)
		}
	}
	for _, want := range []string{"gridrealloc/internal/batch", "gridrealloc/internal/lint", "gridrealloc/cmd/gridlint"} {
		if !seen[want] {
			t.Errorf("expected %s in module package list, got %v", want, pkgs)
		}
	}
}

func TestDiagnosticFormatting(t *testing.T) {
	d := Diagnostic{
		Analyzer: "determinism",
		Pos:      token.Position{Filename: "a.go", Line: 3, Column: 7},
		Message:  "call to time.Now",
	}
	want := "a.go:3:7: determinism: call to time.Now"
	if got := d.String(); got != want {
		t.Fatalf("Diagnostic.String() = %q, want %q", got, want)
	}
	formatted := FormatDiagnostics([]Diagnostic{d})
	if !strings.Contains(formatted, want) {
		t.Fatalf("FormatDiagnostics = %q, should contain %q", formatted, want)
	}
	if FormatDiagnostics(nil) != "" {
		t.Fatal("FormatDiagnostics(nil) should be empty")
	}
}

func TestLoaderProgramAccessor(t *testing.T) {
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, "")
	if _, err := l.Load("determinism"); err != nil {
		t.Fatal(err)
	}
	prog := l.Program()
	if prog == nil || prog.Packages["determinism"] == nil {
		t.Fatal("Program() should expose the loaded determinism package")
	}
}
