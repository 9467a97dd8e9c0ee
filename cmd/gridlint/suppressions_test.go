package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dirtyModule writes a minimal module whose only source trips the
// determinism analyzer (one time.Now call) and carries one unordered-ok
// suppression, and returns its root.
func dirtyModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module dirty\n\ngo 1.24\n")
	write("main.go", `package main

import "time"

func main() {
	_ = time.Now()
	m := map[int]int{1: 1}
	//gridlint:unordered-ok the loop only sums values
	for _, v := range m {
		_ = v
	}
}
`)
	return dir
}

func TestRunJSONDiagnostics(t *testing.T) {
	dir := dirtyModule(t)
	var out, errBuf bytes.Buffer
	code := run([]string{"-root", dir, "-json", "./..."}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errBuf.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.File != "main.go" || d.Analyzer != "determinism" || d.Line == 0 || d.Col == 0 ||
		!strings.Contains(d.Message, "time.Now") {
		t.Fatalf("unexpected diagnostic: %+v", d)
	}
}

func TestRunJSONCleanIsEmptyArray(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-root", moduleRoot(t), "-json", "gridrealloc/internal/cli"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exited %d, want 0\nstderr:\n%s", code, errBuf.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Fatalf("clean -json output = %q, want []", got)
	}
}

func TestSuppressionsMissingBaseline(t *testing.T) {
	dir := dirtyModule(t)
	var out, errBuf bytes.Buffer
	code := run([]string{"-root", dir, "-suppressions", "./..."}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("exited %d, want 1 without a baseline\nstderr:\n%s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "no suppression baseline") {
		t.Fatalf("stderr should explain the missing baseline:\n%s", errBuf.String())
	}
	// stdout stays regeneration-ready: baseline format with the one
	// counted suppression.
	if !strings.Contains(out.String(), "unordered-ok 1") {
		t.Fatalf("counts output missing unordered-ok 1:\n%s", out.String())
	}
}

func TestSuppressionsWithinAndOverBudget(t *testing.T) {
	dir := dirtyModule(t)
	baseline := filepath.Join(dir, suppressionBaselineFile)
	writeBaseline := func(content string) {
		t.Helper()
		if err := os.WriteFile(baseline, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	writeBaseline("# budget\nallow-retain 0\nkeep-across-reset 0\nunordered-ok 1\n")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-root", dir, "-suppressions", "./..."}, &out, &errBuf); code != 0 {
		t.Fatalf("within budget exited %d, want 0\nstderr:\n%s", code, errBuf.String())
	}

	writeBaseline("unordered-ok 0\n")
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-root", dir, "-suppressions", "./..."}, &out, &errBuf); code != 1 {
		t.Fatalf("over budget exited %d, want 1\nstderr:\n%s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "over the budget") {
		t.Fatalf("stderr should name the exceeded budget:\n%s", errBuf.String())
	}
}

func TestSuppressionsSlackIsNotedNotFatal(t *testing.T) {
	dir := dirtyModule(t)
	baseline := filepath.Join(dir, suppressionBaselineFile)
	if err := os.WriteFile(baseline, []byte("unordered-ok 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-root", dir, "-suppressions", "./..."}, &out, &errBuf); code != 0 {
		t.Fatalf("under budget exited %d, want 0\nstderr:\n%s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "ratchet") {
		t.Fatalf("stderr should nudge toward ratcheting down:\n%s", errBuf.String())
	}
}

func TestSuppressionsStaleBaselineEntry(t *testing.T) {
	dir := dirtyModule(t)
	baseline := filepath.Join(dir, suppressionBaselineFile)
	if err := os.WriteFile(baseline, []byte("unordered-ok 1\nnosuchdirective 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-root", dir, "-suppressions", "./..."}, &out, &errBuf); code != 1 {
		t.Fatalf("stale entry exited %d, want 1\nstderr:\n%s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "nosuchdirective") {
		t.Fatalf("stderr should name the stale entry:\n%s", errBuf.String())
	}
}

func TestSuppressionsJSON(t *testing.T) {
	dir := dirtyModule(t)
	baseline := filepath.Join(dir, suppressionBaselineFile)
	if err := os.WriteFile(baseline, []byte("unordered-ok 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-root", dir, "-suppressions", "-json", "./..."}, &out, &errBuf); code != 0 {
		t.Fatalf("exited %d, want 0\nstderr:\n%s", code, errBuf.String())
	}
	var counts map[string]int
	if err := json.Unmarshal(out.Bytes(), &counts); err != nil {
		t.Fatalf("-suppressions -json output is not an object: %v\n%s", err, out.String())
	}
	if counts["unordered-ok"] != 1 || counts["allow-retain"] != 0 {
		t.Fatalf("unexpected counts: %v", counts)
	}
}

func TestReadSuppressionBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) string {
		t.Helper()
		p := filepath.Join(dir, suppressionBaselineFile)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct{ name, content string }{
		{"missing count", "unordered-ok\n"},
		{"non-numeric count", "unordered-ok many\n"},
		{"negative count", "unordered-ok -1\n"},
		{"duplicate entry", "unordered-ok 1\nunordered-ok 2\n"},
	} {
		if _, err := readSuppressionBaseline(write(tc.content)); err == nil {
			t.Errorf("%s: baseline accepted, want error", tc.name)
		}
	}
	p := write("# comment\n\nallow-retain 2\nunordered-ok 7\n")
	budget, err := readSuppressionBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	if budget["allow-retain"] != 2 || budget["unordered-ok"] != 7 || len(budget) != 2 {
		t.Fatalf("parsed budget = %v", budget)
	}
}

// TestCommittedBaselineMatchesTree keeps LINT_SUPPRESSIONS honest: the
// committed budget must cover the tree exactly as `gridlint -suppressions`
// counts it. Type-checks the whole module, so skipped in -short.
func TestCommittedBaselineMatchesTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"-root", moduleRoot(t), "-suppressions", "./..."}, &out, &errBuf); code != 0 {
		t.Fatalf("suppression budget check exited %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errBuf.String())
	}
}
