package detlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The loader is stdlib-only: it discovers the module root itself, expands
// `./...`-style patterns by walking directories, parses each package with
// go/parser and type-checks it with go/types. Imports inside the module
// resolve recursively through the same loader; everything else (the
// standard library) goes through the compiler-independent source importer.
// Test files (_test.go) are never loaded — the suite's invariants govern
// shipped code, and fixture corpora live under testdata, which the walk
// skips like the go tool does.

// Config points the loader at a module.
type Config struct {
	// Dir is the directory patterns are resolved from; the loader finds
	// the enclosing go.mod from here. Defaults to the current directory.
	Dir string
}

// Load parses and type-checks the packages matched by patterns (`./...`,
// `dir/...`, or plain directories), returning them sorted by import path.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(absDir)
	if err != nil {
		return nil, err
	}
	if modPath == "" {
		return nil, fmt.Errorf("detlint: module path unknown for %s", modRoot)
	}

	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(absDir, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, d := range dirs {
		path, err := l.importPathFor(d)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(d, path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("detlint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("detlint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves package patterns to package directories, in
// deterministic sorted order. A trailing `/...` walks recursively; walking
// skips testdata, vendor, and hidden or underscore-prefixed directories,
// matching the go tool.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(base, root)
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, fmt.Errorf("detlint: pattern %q: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("detlint: pattern %q is not a directory", pat)
		}
		if !recursive {
			if !hasGoFiles(root) {
				return nil, fmt.Errorf("detlint: no Go files in %s", root)
			}
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir contains at least one non-test Go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// loader parses and type-checks packages, resolving module-internal
// imports itself and delegating the rest to the source importer. It also
// implements types.Importer so the type checker calls back into it.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package // by import path; nil entry = in progress
	loading []string            // import stack, for cycle reporting
}

// importPathFor maps a directory inside the module to its import path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("detlint: %s is outside module root %s", dir, l.modRoot)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		dir := filepath.Join(l.modRoot, filepath.FromSlash(rel))
		pkg, err := l.load(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one package directory (memoised by import
// path).
func (l *loader) load(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("detlint: import cycle through %s (stack: %s)",
				path, strings.Join(l.loading, " -> "))
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // mark in progress
	l.loading = append(l.loading, path)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("detlint: no Go files in %s", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, e := range typeErrs {
			if i == 10 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-10))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("detlint: type-checking %s failed:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("detlint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
