// Command gridlint runs the five gridrealloc invariant analyzers (directives,
// resetcomplete, stateversion, poollife, determinism — see internal/lint) over the module and prints one line per diagnostic:
//
//	path/to/file.go:line:col: analyzer: message
//
// Usage:
//
//	gridlint [-root dir] [-json] [packages]
//	gridlint [-root dir] [-json] -suppressions [-baseline file] [packages]
//
// With no package arguments (or the pattern "./..."), every package of the
// module is analyzed. Package arguments may be import paths
// ("gridrealloc/internal/batch") or ./-relative directories
// ("./internal/batch").
//
// -json switches stdout to machine-readable output: an array of
// {file, line, col, analyzer, message} objects (or, under -suppressions, a
// directive -> count object).
//
// -suppressions counts the suite's suppression directives
// (keep-across-reset, allow-retain, unordered-ok) instead
// of reporting diagnostics, prints the counts in LINT_SUPPRESSIONS format,
// and fails when a count exceeds the committed baseline — the suppression
// budget only ratchets down.
//
// Exit status: 0 when the tree is clean (or within the suppression budget),
// 1 when diagnostics were reported (or the budget is exceeded), 2 when the
// tree could not be loaded.
//
// The tool is a standalone driver rather than a `go vet -vettool`: the
// vettool protocol requires golang.org/x/tools' unitchecker, which this
// dependency-free module does not import. The analyzers themselves follow
// the x/tools analysis shape, so migrating to a vettool is mechanical if
// the module ever takes on the dependency.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gridrealloc/internal/cli"
	"gridrealloc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	out := cli.NewErrWriter(stdout)
	fs := flag.NewFlagSet("gridlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rootFlag := fs.String("root", "", "module root directory (default: nearest parent with go.mod)")
	jsonFlag := fs.Bool("json", false, "emit machine-readable JSON on stdout")
	suppFlag := fs.Bool("suppressions", false, "count suppression directives against the committed baseline instead of reporting diagnostics")
	baselineFlag := fs.String("baseline", "", "suppression baseline file (default: <root>/"+suppressionBaselineFile+")")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root, module, err := resolveModule(*rootFlag)
	if err != nil {
		fmt.Fprintf(stderr, "gridlint: %v\n", err)
		return 2
	}

	loader := lint.NewLoader(root, module)
	paths, err := resolvePatterns(loader, root, module, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "gridlint: %v\n", err)
		return 2
	}
	prog, err := loader.Load(paths...)
	if err != nil {
		fmt.Fprintf(stderr, "gridlint: %v\n", err)
		return 2
	}

	if *suppFlag {
		code := runSuppressions(prog, root, *baselineFlag, *jsonFlag, out, stderr)
		if err := out.Err(); err != nil {
			fmt.Fprintf(stderr, "gridlint: writing output: %v\n", err)
			return 2
		}
		return code
	}

	diags, err := lint.RunAnalyzers(prog, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(stderr, "gridlint: %v\n", err)
		return 2
	}
	if *jsonFlag {
		if err := writeDiagnosticsJSON(out, root, diags); err != nil {
			fmt.Fprintf(stderr, "gridlint: encoding diagnostics: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(out, "%s:%d:%d: %s: %s\n",
				relativeTo(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if err := out.Err(); err != nil {
		fmt.Fprintf(stderr, "gridlint: writing output: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relativeTo shortens a diagnostic filename to a root-relative path when the
// file lives under the module root.
func relativeTo(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

// jsonDiagnostic is the -json wire shape of one diagnostic. The field set
// mirrors the text format (and the CI problem matcher's capture groups).
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeDiagnosticsJSON emits the diagnostics as a JSON array — always an
// array, never null, so consumers can index a clean run's output.
func writeDiagnosticsJSON(out io.Writer, root string, diags []lint.Diagnostic) error {
	payload := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		payload = append(payload, jsonDiagnostic{
			File:     relativeTo(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// resolveModule locates the module root (the given directory, or the
// nearest parent of the working directory containing go.mod) and reads the
// module path from its go.mod.
func resolveModule(root string) (dir, module string, err error) {
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", "", err
		}
		root, err = findModuleRoot(wd)
		if err != nil {
			return "", "", err
		}
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return "", "", err
	}
	module, err = modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", "", err
	}
	return root, module, nil
}

func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s (use -root)", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// resolvePatterns turns the command-line package arguments into import
// paths. No arguments, ".", or "./..." select the whole module.
func resolvePatterns(loader *lint.Loader, root, module string, args []string) ([]string, error) {
	if len(args) == 0 {
		return loader.ModulePackages()
	}
	var paths []string
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "." || arg == module:
			return loader.ModulePackages()
		case strings.HasPrefix(arg, "./"):
			rel := filepath.Clean(strings.TrimPrefix(arg, "./"))
			if rel == "." {
				paths = append(paths, module)
			} else {
				paths = append(paths, module+"/"+filepath.ToSlash(rel))
			}
		default:
			paths = append(paths, arg)
		}
	}
	return paths, nil
}
