package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// Directives validates the control comments themselves. Every analyzer in
// the suite is annotation-driven, which makes a misspelled directive the
// worst kind of bug: //gridlint:keep-accross-reset doesn't fail — it simply
// never matches, so the field it was meant to justify is flagged while the
// typo'd word looks like an exotic suppression that works. Worse, a typo'd
// suppression on a line the analyzer happens not to flag today silently
// disarms the check for whoever edits that line next. This pass rejects:
//
//   - unknown directive words (anything not in KnownDirectives);
//   - suppression directives without a justification — keep-across-reset,
//     allow-retain and unordered-ok each carry a reason in prose after the
//     word, and an empty reason defeats the review value of the annotation.
var Directives = &Analyzer{
	Name: "directives",
	Doc: "reject unknown //gridlint: directive words and suppression " +
		"directives without a justification",
	Run: runDirectives,
}

// suppressionNeedsReason is the subset of directives whose trailing prose
// is mandatory.
var suppressionNeedsReason = map[string]bool{
	DirKeepAcrossRst: true,
	DirAllowRetain:   true,
	DirUnorderedOK:   true,
}

func runDirectives(pass *Pass) error {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checkDirectiveComment(pass, c)
			}
		}
	}
	return nil
}

func checkDirectiveComment(pass *Pass, c *ast.Comment) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, directivePrefix) {
		return
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	word := rest
	reason := ""
	if i := strings.IndexAny(rest, " \t("); i >= 0 {
		word = rest[:i]
		reason = strings.TrimSpace(rest[i:])
	}
	if word == "" {
		pass.Reportf(c.Pos(), "//gridlint: comment with no directive word")
		return
	}
	if !KnownDirectives[word] {
		pass.Reportf(c.Pos(),
			"unknown gridlint directive %q (known: %s); a typo here silently disables the check it was meant to configure",
			word, knownDirectiveList())
		return
	}
	if suppressionNeedsReason[word] && reason == "" {
		pass.Reportf(c.Pos(),
			"//gridlint:%s needs a justification after the directive word", word)
	}
}

// knownDirectiveList renders the known directive words sorted, for the
// unknown-directive diagnostic.
func knownDirectiveList() string {
	words := make([]string, 0, len(KnownDirectives))
	//gridlint:unordered-ok collected then sorted
	for w := range KnownDirectives {
		words = append(words, w)
	}
	sort.Strings(words)
	return strings.Join(words, ", ")
}
