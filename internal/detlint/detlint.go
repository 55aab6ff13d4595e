// Package detlint is the repo's determinism & hot-path static-analysis
// suite. Every layer of this codebase rests on one invariant — same seed →
// byte-identical bytes — and one performance contract — zero-alloc
// steady-state hot paths. Both are enforced after the fact by golden-report
// cmps and AllocsPerRun pins; detlint enforces them at the source level,
// before a stray map-range or wall-clock read ever reaches a golden test.
//
// The suite is stdlib-only (go/parser, go/ast, go/types) and ships five
// invariant analyzers plus a directive-hygiene pass:
//
//   - rangemap: `for … range` over a map in a determinism-critical package
//     (sim, rtm, fleet, workload, trace, hw, perf) is the canonical
//     determinism bug — iteration order is randomised per run. Collecting
//     keys into a slice that is sorted (the sorted-keys idiom) is
//     recognised as clean; any other map range needs a
//     `//detlint:ordered <reason>` directive.
//   - wallclock: time.Now/Since/Sleep (and siblings) in those packages —
//     the simulation owns its clock; wall time is only legal in
//     orchestrator/CLI code, via `//detlint:allow wallclock <reason>`.
//   - globalrand: package-level math/rand functions anywhere outside tests
//     — all randomness must flow through an explicitly seeded generator —
//     and any math/rand or math/rand/v2 import in those packages, whose
//     randomness comes from internal/rng.
//   - hotalloc: functions marked `//detlint:hotpath` must avoid
//     known-allocating constructs: fmt.Sprintf/Errorf, non-constant string
//     concatenation, composite literals escaping into interfaces, and
//     append to slices that are neither parameter-owned nor built with a
//     capacity hint.
//   - deadexport: an exported function or method of an internal/ package
//     that no loaded non-test file uses — surface only tests reach. A
//     method that may implement an interface is exempt, and the rule is
//     silent unless every package allowed to import the package was
//     loaded; keep one on purpose with
//     `//detlint:allow deadexport <reason>`.
//   - directive: `//detlint:` comments themselves are checked — unknown
//     verbs, suppressions without a reason, and allow-directives naming
//     unknown analyzers are diagnostics.
//
// Diagnostics print as `file:line: [analyzer] message`; cmd/detlint exits
// nonzero when any are found, and CI runs it as a required job.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding. The JSON field names are the machine-readable
// contract of `cmd/detlint -json` (one object per line).
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the human-readable form: file:line: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Package is one parsed, type-checked package under analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass is the per-package context handed to each analyzer.
type Pass struct {
	Pkg *Package
	// Critical reports whether the package is determinism-critical (the
	// rangemap and wallclock analyzers only apply there).
	Critical bool

	analyzer string
	dirs     *directiveIndex
	loaded   *loadedSet
	out      *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a suppression directive for
// this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.dirs.suppressed(p.analyzer, position.Filename, position.Line) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant check run over every loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Suite is a set of analyzers plus the policy deciding which packages are
// determinism-critical.
type Suite struct {
	Analyzers []*Analyzer
	// Critical classifies a package import path as determinism-critical.
	Critical func(pkgPath string) bool
}

// criticalBases are the determinism-critical package names: the simulation
// core, the policy/actuation layer, the fleet harness, the workload runner,
// the trace formatter, and the hardware and DNN performance models the
// engine and planners compute from. Everything they emit feeds a golden cmp.
var criticalBases = map[string]bool{
	"sim":      true,
	"rtm":      true,
	"fleet":    true,
	"workload": true,
	"trace":    true,
	"hw":       true,
	"perf":     true,
}

// DefaultCritical is the repo's classification: a package is
// determinism-critical when its import path ends in internal/<base> for
// one of the critical base names. Examples and CLIs that merely *use*
// those packages (the root package's Examples, cmd/fleetsim) are
// presentation code, not simulation state, and stay out.
func DefaultCritical(pkgPath string) bool {
	i := strings.LastIndexByte(pkgPath, '/')
	if i < 0 {
		return false
	}
	base := pkgPath[i+1:]
	if !criticalBases[base] {
		return false
	}
	parent := pkgPath[:i]
	return parent == "internal" || strings.HasSuffix(parent, "/internal")
}

// DefaultSuite returns the full analyzer suite with the repo's critical-
// package classification.
func DefaultSuite() *Suite {
	return &Suite{
		Analyzers: []*Analyzer{RangeMap, WallClock, GlobalRand, HotAlloc, DeadExport, Directive},
		Critical:  DefaultCritical,
	}
}

// knownAnalyzers is the set of names a //detlint:allow directive may
// name, and knownNames the same names sorted for messages. Both come from
// DefaultSuite, the one list of analyzers.
var (
	knownAnalyzers = map[string]bool{}
	knownNames     string
)

func init() {
	var names []string
	for _, a := range DefaultSuite().Analyzers {
		knownAnalyzers[a.Name] = true
		names = append(names, a.Name)
	}
	sort.Strings(names)
	knownNames = strings.Join(names, ", ")
}

// Run executes every analyzer over every package and returns the combined
// diagnostics sorted by file, line, column and analyzer.
func (s *Suite) Run(pkgs []*Package) []Diagnostic {
	critical := s.Critical
	if critical == nil {
		critical = DefaultCritical
	}
	var out []Diagnostic
	loaded := &loadedSet{pkgs: pkgs}
	for _, pkg := range pkgs {
		dirs := indexDirectives(pkg)
		for _, a := range s.Analyzers {
			pass := &Pass{
				Pkg:      pkg,
				Critical: critical(pkg.Path),
				analyzer: a.Name,
				dirs:     dirs,
				loaded:   loaded,
				out:      &out,
			}
			a.Run(pass)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}
