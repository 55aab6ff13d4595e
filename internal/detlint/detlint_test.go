package detlint

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The suite is regression-tested against a fixture corpus under
// testdata/src, a module named "fixture". Expectations
// live in the fixtures as comments:
//
//	expr // want `regex`
//
// anchors a diagnostic to the comment's own line. A directive-hygiene
// diagnostic lands on a comment-only line that cannot carry a second `//`
// comment, so the offset form anchors relative to the comment:
//
//	//detlint:ordered
//	// want-1 `detlint:ordered requires a reason`
//
// Every diagnostic must match exactly one pending want on its (file, line)
// and every want must be consumed — unexpected findings and silent misses
// both fail.

var wantRE = regexp.MustCompile("^want([+-][0-9]+)? `([^`]+)`$")

type wantComment struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	used bool
}

// collectWants scans the loaded fixture files for want comments.
func collectWants(t *testing.T, pkgs []*Package) []*wantComment {
	t.Helper()
	var wants []*wantComment
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want") {
						continue
					}
					m := wantRE.FindStringSubmatch(text)
					if m == nil {
						t.Fatalf("%s: malformed want comment %q", pkg.Fset.Position(c.Pos()), c.Text)
					}
					offset := 0
					if m[1] != "" {
						var err error
						offset, err = strconv.Atoi(m[1])
						if err != nil {
							t.Fatalf("%s: bad want offset %q", pkg.Fset.Position(c.Pos()), m[1])
						}
					}
					re, err := regexp.Compile(m[2])
					if err != nil {
						t.Fatalf("%s: bad want regex %q: %v", pkg.Fset.Position(c.Pos()), m[2], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &wantComment{
						file: pos.Filename,
						line: pos.Line + offset,
						re:   re,
						raw:  m[2],
					})
				}
			}
		}
	}
	return wants
}

func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load(Config{Dir: "testdata/src"}, "./...")
	if err != nil {
		t.Fatalf("loading fixture corpus: %v", err)
	}
	return pkgs
}

func TestFixtureCorpus(t *testing.T) {
	pkgs := loadFixtures(t)

	// The corpus must cover both sides of the critical boundary.
	paths := map[string]bool{}
	for _, pkg := range pkgs {
		paths[pkg.Path] = true
	}
	for _, p := range []string{"fixture/internal/sim", "fixture/internal/trace", "fixture/internal/dead", "fixture/deaduser", "fixture/orchcli", "fixture/randuser", "fixture/hot"} {
		if !paths[p] {
			t.Fatalf("fixture corpus missing package %s (loaded: %v)", p, paths)
		}
	}

	wants := collectWants(t, pkgs)
	if len(wants) == 0 {
		t.Fatal("no want comments found: the expectation parser is broken")
	}
	diags := DefaultSuite().Run(pkgs)
	if len(diags) == 0 {
		t.Fatal("no diagnostics on the fixture corpus: the suite is broken")
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.used && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected a diagnostic matching `%s`, got none", w.file, w.line, w.raw)
		}
	}
}

// TestDeadExportNeedsEveryImporter: a run over some packages must not
// report a deadexport finding that a run over the whole module does not.
// Loaded alone, fixture/internal/dead's Used looks dead, because its one
// caller, deaduser, was not loaded; so is the repo's sim package, whose
// callers live across the module.
func TestDeadExportNeedsEveryImporter(t *testing.T) {
	deadexport := func(pkgs []*Package) map[string]bool {
		found := map[string]bool{}
		for _, d := range DefaultSuite().Run(pkgs) {
			if d.Analyzer == "deadexport" {
				found[d.String()] = true
			}
		}
		return found
	}
	full := deadexport(loadFixtures(t))
	if len(full) == 0 {
		t.Fatal("no deadexport findings on the whole fixture corpus")
	}
	cases := []struct {
		dir      string
		patterns []string
	}{
		{"testdata/src", []string{"./internal/dead"}},
		{"testdata/src", []string{"./internal/dead", "./deaduser"}},
		{"testdata/src", []string{"./internal/..."}},
		{"../..", []string{"./internal/sim"}},
	}
	for _, c := range cases {
		pkgs, err := Load(Config{Dir: c.dir}, c.patterns...)
		if err != nil {
			t.Fatalf("loading %v: %v", c.patterns, err)
		}
		for d := range deadexport(pkgs) {
			if !full[d] {
				t.Errorf("%s %v: %s is not a finding of the whole module", c.dir, c.patterns, d)
			}
		}
	}
}

func TestDefaultCritical(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"github.com/emlrtm/emlrtm/internal/sim", true},
		{"github.com/emlrtm/emlrtm/internal/rtm", true},
		{"github.com/emlrtm/emlrtm/internal/fleet", true},
		{"github.com/emlrtm/emlrtm/internal/workload", true},
		{"github.com/emlrtm/emlrtm/internal/trace", true},
		{"github.com/emlrtm/emlrtm/internal/hw", true},
		{"github.com/emlrtm/emlrtm/internal/perf", true},
		{"fixture/internal/sim", true},
		// The tooling itself is not simulation state.
		{"github.com/emlrtm/emlrtm/internal/detlint", false},
		// Presentation code that merely uses critical packages stays out.
		{"github.com/emlrtm/emlrtm/examples/fleet", false},
		{"github.com/emlrtm/emlrtm/cmd/fleetsim", false},
		// A critical base name alone is not enough: it must sit under internal.
		{"sim", false},
		{"pkg/sim", false},
		{"internal/sim", true},
	}
	for _, c := range cases {
		if got := DefaultCritical(c.path); got != c.want {
			t.Errorf("DefaultCritical(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestRepoIsClean is the enforcement test: the repository's own sources
// must carry zero findings. A new map range, wall-clock read or hot-path
// allocation fails this test (and the static-analysis CI job) until it is
// either fixed or annotated with a reasoned directive.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := Load(Config{Dir: "../.."}, "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("suspiciously few packages loaded (%d): loader regression?", len(pkgs))
	}
	diags := DefaultSuite().Run(pkgs)
	for _, d := range diags {
		t.Errorf("repository finding: %s", d)
	}
}
