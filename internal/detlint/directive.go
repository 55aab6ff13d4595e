package detlint

import (
	"go/ast"
	"strings"
)

// Directive comments steer the suite:
//
//	//detlint:ordered <reason>   suppress rangemap on this (or the next) line
//	//detlint:allow <analyzer> <reason>
//	                             suppress any analyzer on this (or the next) line
//	//detlint:hotpath [note]     opt a function into the hotalloc checks
//	                             (placed in the function's doc comment)
//
// Suppressions require a reason: an unexplained exemption is itself a
// diagnostic (the directive analyzer), so every hole punched in an
// invariant carries its justification in the source.

const directivePrefix = "//detlint:"

// parsedDirective is one //detlint: comment, split into its parts.
type parsedDirective struct {
	comment *ast.Comment
	verb    string // "ordered", "allow", "hotpath", or anything (checked later)
	args    string // text after the verb, space-trimmed
}

// parseDirective splits a comment into a directive, or returns ok=false
// for ordinary comments.
func parseDirective(c *ast.Comment) (parsedDirective, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return parsedDirective{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	verb, args, _ := strings.Cut(rest, " ")
	return parsedDirective{comment: c, verb: verb, args: strings.TrimSpace(args)}, true
}

// directiveIndex records, per file and analyzer, which lines carry a
// suppression. A directive suppresses its own line (trailing-comment form)
// and the line below it (own-line form).
type directiveIndex struct {
	// suppress[analyzer][file] = set of suppressed lines
	suppress map[string]map[string]map[int]bool
	// all holds every parsed directive for the hygiene pass.
	all []parsedDirective
}

func (ix *directiveIndex) add(analyzer, file string, line int) {
	byFile := ix.suppress[analyzer]
	if byFile == nil {
		byFile = map[string]map[int]bool{}
		ix.suppress[analyzer] = byFile
	}
	lines := byFile[file]
	if lines == nil {
		lines = map[int]bool{}
		byFile[file] = lines
	}
	lines[line] = true
	lines[line+1] = true
}

func (ix *directiveIndex) suppressed(analyzer, file string, line int) bool {
	return ix.suppress[analyzer][file][line]
}

// indexDirectives scans a package's comments once, building the
// suppression index shared by every analyzer's Reportf.
func indexDirectives(pkg *Package) *directiveIndex {
	ix := &directiveIndex{suppress: map[string]map[string]map[int]bool{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				ix.all = append(ix.all, d)
				pos := pkg.Fset.Position(c.Pos())
				switch d.verb {
				case "ordered":
					if d.args != "" {
						ix.add("rangemap", pos.Filename, pos.Line)
					}
				case "allow":
					name, reason, _ := strings.Cut(d.args, " ")
					if knownAnalyzers[name] && strings.TrimSpace(reason) != "" {
						ix.add(name, pos.Filename, pos.Line)
					}
				}
			}
		}
	}
	return ix
}

// hotpathDirective reports whether a function's doc comment opts it into
// the hotalloc analyzer.
func hotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok && d.verb == "hotpath" {
			return true
		}
	}
	return false
}

// Directive is the hygiene pass over //detlint: comments themselves:
// unknown verbs, suppressions missing their mandatory reason, and allow
// directives naming unknown analyzers are all diagnostics — a malformed
// directive silently suppressing nothing (or everything) would defeat the
// suite.
var Directive = &Analyzer{
	Name: "directive",
	Doc:  "validate //detlint: directives (verbs known, reasons present)",
	Run:  runDirective,
}

func runDirective(pass *Pass) {
	dirs := pass.dirs
	for _, d := range dirs.all {
		pos := d.comment.Pos()
		switch d.verb {
		case "hotpath":
			// No mandatory arguments: the marker is the contract.
		case "ordered":
			if d.args == "" {
				pass.Reportf(pos, "detlint:ordered requires a reason explaining why this map iteration is order-independent")
			}
		case "allow":
			name, reason, _ := strings.Cut(d.args, " ")
			if name == "" {
				pass.Reportf(pos, "detlint:allow requires an analyzer name and a reason")
				continue
			}
			if !knownAnalyzers[name] {
				pass.Reportf(pos, "detlint:allow names unknown analyzer %q (known: %s)", name, knownNames)
				continue
			}
			if strings.TrimSpace(reason) == "" {
				pass.Reportf(pos, "detlint:allow %s requires a reason explaining the exemption", name)
			}
		default:
			pass.Reportf(pos, "unknown detlint directive %q (known: allow, hotpath, ordered)", d.verb)
		}
	}
}
