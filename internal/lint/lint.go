// Package lint implements gridlint: a suite of static analyzers that
// enforce, at build time, the invariants the reallocation engine's
// correctness proofs rest on (see the "Static invariants" sections of the
// module's doc.go and ROADMAP.md). The invariants were previously guarded
// only by runtime oracles — the fuzz harness and the reuse-equivalence
// digest tests — which fire after a bug ships; the analyzers reject the bug
// at lint time instead.
//
// The suite is shaped after golang.org/x/tools/go/analysis (an Analyzer
// with a Run function over a Pass), but is self-contained on the standard
// library: the module is dependency-free by policy, so the framework loads
// and type-checks packages itself (see Loader) instead of importing the
// x/tools driver machinery. Migrating an analyzer to x/tools later is a
// mechanical change of the Pass plumbing; the Run bodies carry over.
//
// # Analyzers
//
// The suite holds five analyzers, listed in run order by Analyzers.
//
//   - directives: rejects unknown //gridlint: words and suppression
//     directives that carry no justification.
//   - resetcomplete: every field of a type marked //gridlint:resettable
//     must be re-initialised by its Reset/reset method (directly, via a
//     helper method, or in place through a call) or carry an explicit
//     //gridlint:keep-across-reset directive. Guards the pooled-reuse
//     contract "anything added to a scheduler/agent/driver MUST be cleared
//     in the corresponding reset".
//   - stateversion: methods of a type with a stateVersion counter that
//     write a field marked //gridlint:observable must bump stateVersion
//     (directly or through a callee on the same receiver) or carry
//     //gridlint:stateversion-bumped-by-caller. Guards the dirty-cluster
//     sweep-skipping contract "any new mutation path MUST bump
//     stateVersion".
//   - poollife: the result of a function marked //gridlint:pooled is only
//     valid until the provider's documented reuse point; storing it in a
//     struct field, a global, or a closure without a copy is flagged unless
//     the store carries //gridlint:allow-retain (ownership transfer).
//   - determinism: forbids wall-clock time (time.Now/Since), the global
//     math/rand source, un-annotated map iteration (order feeds digests,
//     results and emitted tables; annotate provably order-insensitive loops
//     with //gridlint:unordered-ok), and package-level variables of types
//     marked //gridlint:stateful (per-run state such as mapping policies
//     must not be shared across runs).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. It mirrors the x/tools analysis.Analyzer
// surface the suite needs: a name, a documentation string and a Run
// function invoked once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check on one package, reporting findings through
	// pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files, in load order.
	Files []*ast.File
	// Pkg and Info are the type-checked package and its expression types.
	Pkg  *types.Package
	Info *types.Info
	// Prog is the whole loaded program, for analyzers that need
	// cross-package facts (poollife resolves //gridlint:pooled directives on
	// imported packages through it).
	Prog *Program

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// directivePrefix introduces every gridlint control comment.
const directivePrefix = "gridlint:"

// Directives recognised by the suite. Each is documented on the analyzer
// that consumes it (see the package comment).
const (
	DirResettable     = "resettable"
	DirKeepAcrossRst  = "keep-across-reset"
	DirObservable     = "observable"
	DirBumpedByCaller = "stateversion-bumped-by-caller"
	DirPooled         = "pooled"
	DirAllowRetain    = "allow-retain"
	DirUnorderedOK    = "unordered-ok"
	DirStateful       = "stateful"
)

// KnownDirectives is the complete set of directive words the suite
// recognises; the directives validation pass rejects anything else (a
// typo'd directive would otherwise silently disable its check).
var KnownDirectives = map[string]bool{
	DirResettable:     true,
	DirKeepAcrossRst:  true,
	DirObservable:     true,
	DirBumpedByCaller: true,
	DirPooled:         true,
	DirAllowRetain:    true,
	DirUnorderedOK:    true,
	DirStateful:       true,
}

// SuppressionDirectives are the directives that silence another analyzer's
// diagnostic at a specific site; gridlint -suppressions counts them against
// the committed LINT_SUPPRESSIONS budget so the total only ratchets down.
var SuppressionDirectives = []string{
	DirKeepAcrossRst,
	DirAllowRetain,
	DirUnorderedOK,
}

// CountSuppressions tallies, per directive word, how many suppression
// directives appear in the loaded program's sources. Every word in
// SuppressionDirectives is present in the result, zero-valued when unused,
// so a regenerated baseline always lists the full budget vocabulary.
func CountSuppressions(prog *Program) map[string]int {
	counts := make(map[string]int, len(SuppressionDirectives))
	suppress := make(map[string]bool, len(SuppressionDirectives))
	for _, w := range SuppressionDirectives {
		counts[w] = 0
		suppress[w] = true
	}
	//gridlint:unordered-ok tallying into a map; consumers sort the words
	for _, lines := range prog.directives {
		//gridlint:unordered-ok tallying into a map; consumers sort the words
		for _, entries := range lines {
			for _, e := range entries {
				if suppress[e.word] {
					counts[e.word]++
				}
			}
		}
	}
	return counts
}

// directiveIndex maps file -> line -> directives found on that line.
// A directive comment is a // comment whose text starts with "gridlint:";
// everything after the colon up to the first space is the directive word
// (trailing prose is a human justification and is ignored). The comment's
// column disambiguates trailing comments (which annotate their own line
// only) from own-line comments (which annotate the line below).
type directiveIndex map[string]map[int][]directiveEntry

type directiveEntry struct {
	word string
	col  int
}

// indexDirectives scans a file's comments for gridlint directives.
func indexDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	idx := make(directiveIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				word := strings.TrimPrefix(text, directivePrefix)
				if i := strings.IndexAny(word, " \t("); i >= 0 {
					word = word[:i]
				}
				pos := fset.Position(c.Pos())
				m := idx[pos.Filename]
				if m == nil {
					m = make(map[int][]directiveEntry)
					idx[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], directiveEntry{word: word, col: pos.Column})
			}
		}
	}
	return idx
}

// hasDirectiveAt reports whether the directive applies at the given
// position: a trailing comment on the same line, or an own-line comment on
// the line immediately above. A comment on the line above counts only when
// it starts at or left of the position's column — a trailing comment on the
// previous line of code sits far to the right and must not leak onto the
// next line.
func (idx directiveIndex) hasDirectiveAt(pos token.Position, dir string) bool {
	m := idx[pos.Filename]
	if m == nil {
		return false
	}
	for _, e := range m[pos.Line] {
		if e.word == dir {
			return true
		}
	}
	for _, e := range m[pos.Line-1] {
		if e.word == dir && e.col <= pos.Column {
			return true
		}
	}
	return false
}

// nodeHasDirective reports whether the directive is attached to the node:
// on the node's first line, the line above it, or anywhere in the given doc
// comment group (a declaration's Doc).
func nodeHasDirective(fset *token.FileSet, idx directiveIndex, node ast.Node, doc *ast.CommentGroup, dir string) bool {
	if idx.hasDirectiveAt(fset.Position(node.Pos()), dir) {
		return true
	}
	if doc != nil {
		for _, c := range doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, directivePrefix+dir) {
				return true
			}
		}
	}
	return false
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Directives,
		ResetComplete,
		StateVersion,
		PoolLife,
		Determinism,
	}
}

// RunAnalyzers applies the given analyzers to every package of the program
// and returns the findings sorted by position.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range prog.Sorted() {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
