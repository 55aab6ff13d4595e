package detlint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// DeadExport flags exported functions and methods of internal/ packages
// that no loaded non-test file uses. Test files are never loaded, so a
// function that only tests reach is reported: delete it together with
// the tests that exist only for it, or keep it with
// `//detlint:allow deadexport <reason>`.
//
// A method is never reported when an interface the loaded code can see
// (the module's own, the standard library's, or error) has a method of
// the same name and signature: calls through that interface do not name
// the method, so its callers cannot be counted.
//
// The rule speaks only when every package that may import the internal
// package was loaded. Go lets only the tree rooted at the parent of
// "internal" import it, so `detlint ./internal/sim` reports nothing that
// `detlint ./...` would not.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "flag exported internal functions and methods no non-test code uses",
	Run:  runDeadExport,
}

func runDeadExport(pass *Pass) {
	u := pass.loaded
	if !u.importersLoaded(pass.Pkg) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok || u.usedFuncs()[fn] {
				continue
			}
			name := fn.Name()
			if fd.Recv != nil {
				if u.mayImplement(fn) {
					continue
				}
				name = recvTypeName(fn) + "." + name
			}
			pass.Reportf(fd.Name.Pos(),
				"exported %s has no use in non-test code: delete it, or annotate with //detlint:allow deadexport <reason>",
				name)
		}
	}
}

// recvTypeName names a method's receiver base type, without pointer or
// type arguments.
func recvTypeName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return types.TypeString(t, nil)
}

// loadedSet is every package of one Suite.Run, with the cross-package
// facts deadexport asks of it, each built on first use.
type loadedSet struct {
	pkgs    []*Package
	used    map[*types.Func]bool
	ifaces  map[string][]*types.Func // interface methods by name
	dirs    map[string]bool
	byScope map[string]bool
}

// usedFuncs is the set of functions and methods some loaded file names,
// keyed by their generic origin.
func (u *loadedSet) usedFuncs() map[*types.Func]bool {
	if u.used == nil {
		u.used = map[*types.Func]bool{}
		for _, pkg := range u.pkgs {
			for _, obj := range pkg.Info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					u.used[fn.Origin()] = true
				}
			}
		}
	}
	return u.used
}

// mayImplement reports whether some visible interface has a method with
// fn's name and signature, so fn may be called through it.
func (u *loadedSet) mayImplement(fn *types.Func) bool {
	if u.ifaces == nil {
		u.collectInterfaces()
	}
	for _, m := range u.ifaces[fn.Name()] {
		// Identical ignores the receiver of a signature.
		if types.Identical(m.Type(), fn.Type()) {
			return true
		}
	}
	return false
}

// collectInterfaces gathers the methods of error, of every interface type
// the loaded files mention (named or literal), and of every named
// interface declared by a package the loaded ones import, transitively.
func (u *loadedSet) collectInterfaces() {
	u.ifaces = map[string][]*types.Func{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			u.ifaces[m.Name()] = append(u.ifaces[m.Name()], m)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range u.pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				add(tv.Type)
			}
		}
	}
}

// importersLoaded reports whether pkg sits under an internal/ directory
// and every package that Go allows to import it was loaded.
func (u *loadedSet) importersLoaded(pkg *Package) bool {
	elems := strings.Split(pkg.Path, "/")
	last := -1
	for i, e := range elems {
		if e == "internal" {
			last = i
		}
	}
	if last < 0 {
		return false
	}
	scope := pkg.Dir
	for range elems[last:] {
		scope = filepath.Dir(scope)
	}
	if u.byScope == nil {
		u.byScope = map[string]bool{}
		u.dirs = map[string]bool{}
		for _, p := range u.pkgs {
			u.dirs[p.Dir] = true
		}
	}
	if ok, done := u.byScope[scope]; done {
		return ok
	}
	dirs, err := expandPatterns(scope, []string{"./..."})
	ok := err == nil
	for _, d := range dirs {
		ok = ok && u.dirs[d]
	}
	u.byScope[scope] = ok
	return ok
}
