package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces the zero-alloc contract on functions opted in with a
// `//detlint:hotpath` directive in their doc comment (the engine's event
// loop and heap sifts, SnapshotInto/CloneInto, the planState planning
// machinery, StateKey). Inside a marked function it flags the constructs
// that reliably allocate:
//
//   - fmt.Sprintf / fmt.Errorf (and Sprint/Sprintln) — always allocate the
//     result string, and box every operand through ...any;
//   - any other call that passes a non-constant, non-pointer-shaped operand
//     to a variadic interface parameter (a logger's ...any) — the operand
//     is boxed on the heap at the call, whatever the callee then does with
//     it; guard such calls (`if logf != nil`) and allow them with a reason;
//   - non-constant string concatenation — every `+` on strings builds a
//     new string (constant-folded concatenations are free and stay legal);
//   - composite literals escaping into an interface — passing, assigning,
//     returning or converting `T{…}` / `&T{…}` where an interface is
//     expected heap-allocates the value;
//   - append to a slice that is neither parameter-owned (the reusable-
//     buffer idiom: caller passes the buffer in, or it hangs off the
//     receiver) nor derived from a capacity hint (`make` with capacity, or
//     slicing a fixed-size array) — growth in steady state.
//
// The checks cover the marked function's own body, not its callees: the
// alloc budget for a whole path is still pinned by AllocsPerRun tests;
// hotalloc catches the regressions at the line that introduces them.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocating constructs in //detlint:hotpath functions",
	Run:  runHotAlloc,
}

// fmtAllocFuncs are the fmt formatters that always allocate.
var fmtAllocFuncs = map[string]bool{
	"Sprintf":  true,
	"Errorf":   true,
	"Sprint":   true,
	"Sprintln": true,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotpathDirective(fd.Doc) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	h := &hotChecker{
		pass:   pass,
		info:   info,
		params: paramObjects(info, fd),
		// coveredAdds suppresses one-report-per-operand on chained a+b+c.
		coveredAdds: map[*ast.BinaryExpr]bool{},
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			h.checkCall(n)
		case *ast.BinaryExpr:
			h.checkStringConcat(n)
		case *ast.AssignStmt:
			h.checkAssignInterface(n)
		case *ast.ValueSpec:
			h.checkValueSpecInterface(n)
		case *ast.ReturnStmt:
			h.checkReturnInterface(n, fd)
		case *ast.FuncLit:
			// A closure has its own parameters and allocation story; it is
			// not part of the marked function's steady-state loop body
			// budget unless marked itself (function literals cannot carry
			// doc directives, so they are out of scope).
			return false
		}
		return true
	})
}

type hotChecker struct {
	pass        *Pass
	info        *types.Info
	params      map[types.Object]bool
	coveredAdds map[*ast.BinaryExpr]bool
}

// paramObjects collects the objects bound to a function's parameters,
// results and receiver — the caller-owned storage append may grow.
func paramObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	addFields(fd.Type.Results)
	return out
}

// localInit resolves the initialiser of a local object by scanning the
// enclosing function body on demand (bodies are small; hot functions
// doubly so). Tuple assignments resolve index to index; multi-value calls
// stay unresolved (unknown storage).
func (h *hotChecker) localInit(obj types.Object, body *ast.BlockStmt) ast.Expr {
	var init ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && h.defOrUse(id) == obj {
						if n.Tok == token.DEFINE || init == nil {
							init = n.Rhs[i]
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if h.info.Defs[name] == obj && i < len(n.Values) {
					init = n.Values[i]
				}
			}
		}
		return true
	})
	return init
}

func (h *hotChecker) defOrUse(id *ast.Ident) types.Object {
	if obj := h.info.Defs[id]; obj != nil {
		return obj
	}
	return h.info.Uses[id]
}

// checkCall handles fmt formatters, interface-escaping composite-literal
// arguments, interface conversions, and append-target classification.
func (h *hotChecker) checkCall(call *ast.CallExpr) {
	// fmt.Sprintf / fmt.Errorf family. The report covers the operands'
	// boxing too, so the variadic check below does not repeat it.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := h.info.Uses[sel.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()] {
			h.pass.Reportf(call.Pos(), "fmt.%s allocates on a //detlint:hotpath function", fn.Name())
			return
		}
	}

	// Explicit conversion to an interface type: any(T{…}), error(&E{…}).
	if tv, ok := h.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if types.IsInterface(tv.Type) && isCompositeLit(call.Args[0]) {
			h.pass.Reportf(call.Args[0].Pos(),
				"composite literal converted to interface %s escapes to the heap on a //detlint:hotpath function",
				types.TypeString(tv.Type, types.RelativeTo(h.pass.Pkg.Types)))
		}
		return // a conversion is not a call; no params, no append
	}

	// append target classification.
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(h.info, id, "append") && len(call.Args) > 0 {
		h.checkAppendTarget(call)
		return
	}

	// Composite-literal arguments landing in interface parameters.
	sig, ok := h.info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if !isCompositeLit(arg) {
			continue
		}
		pt := paramType(sig, i)
		if pt != nil && types.IsInterface(pt) {
			h.pass.Reportf(arg.Pos(),
				"composite literal passed as interface %s escapes to the heap on a //detlint:hotpath function",
				types.TypeString(pt, types.RelativeTo(h.pass.Pkg.Types)))
		}
	}
	h.checkVariadicBoxing(call, sig)
}

// checkVariadicBoxing flags a call that boxes operands into a variadic
// interface parameter (...any): each non-constant operand whose value is
// not pointer-shaped is copied to the heap at the call. One report per
// call, at the call, so a single allow directive covers a multi-line
// logging call. A spread slice (f(xs...)) boxes nothing at the call, and
// composite literals are already reported by the interface-escape check.
func (h *hotChecker) checkVariadicBoxing(call *ast.CallExpr, sig *types.Signature) {
	n := sig.Params().Len()
	if !sig.Variadic() || call.Ellipsis.IsValid() || len(call.Args) < n {
		return
	}
	elem := paramType(sig, n-1)
	if elem == nil || !types.IsInterface(elem) {
		return
	}
	boxed := 0
	for _, arg := range call.Args[n-1:] {
		if !isCompositeLit(arg) && !boxFree(h.info.Types[arg]) {
			boxed++
		}
	}
	if boxed > 0 {
		h.pass.Reportf(call.Pos(),
			"%d operand(s) boxed into ...%s allocate on a //detlint:hotpath function",
			boxed, types.TypeString(elem, types.RelativeTo(h.pass.Pkg.Types)))
	}
}

// boxFree reports whether converting an operand to an interface is free:
// constants and nil are boxed statically, and pointer-shaped values
// (pointers, maps, channels, funcs, interfaces) are stored in the
// interface word itself.
func boxFree(tv types.TypeAndValue) bool {
	if tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return true
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// paramType returns the type of parameter i, unrolling variadics.
func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if s, ok := last.(*types.Slice); ok {
			return s.Elem()
		}
		return last
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

func isCompositeLit(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

// checkStringConcat flags non-constant string `+`. Only the outermost add
// of a chain reports; its nested adds are marked covered.
func (h *hotChecker) checkStringConcat(be *ast.BinaryExpr) {
	if be.Op != token.ADD || h.coveredAdds[be] {
		return
	}
	tv, ok := h.info.Types[be]
	if !ok {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return
	}
	if tv.Value != nil {
		return // constant-folded at compile time: free
	}
	h.pass.Reportf(be.OpPos, "string concatenation allocates on a //detlint:hotpath function")
	// Cover nested adds so a+b+c reports once.
	ast.Inspect(be, func(n ast.Node) bool {
		if nested, ok := n.(*ast.BinaryExpr); ok && nested != be && nested.Op == token.ADD {
			h.coveredAdds[nested] = true
		}
		return true
	})
}

// checkAssignInterface flags composite literals assigned into interface-
// typed destinations.
func (h *hotChecker) checkAssignInterface(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		if !isCompositeLit(rhs) {
			continue
		}
		lt := h.info.TypeOf(as.Lhs[i])
		if lt != nil && types.IsInterface(lt) {
			h.pass.Reportf(rhs.Pos(),
				"composite literal assigned to interface %s escapes to the heap on a //detlint:hotpath function",
				types.TypeString(lt, types.RelativeTo(h.pass.Pkg.Types)))
		}
	}
}

func (h *hotChecker) checkValueSpecInterface(vs *ast.ValueSpec) {
	if vs.Type == nil {
		return
	}
	dt := h.info.TypeOf(vs.Type)
	if dt == nil || !types.IsInterface(dt) {
		return
	}
	for _, v := range vs.Values {
		if isCompositeLit(v) {
			h.pass.Reportf(v.Pos(),
				"composite literal assigned to interface %s escapes to the heap on a //detlint:hotpath function",
				types.TypeString(dt, types.RelativeTo(h.pass.Pkg.Types)))
		}
	}
}

func (h *hotChecker) checkReturnInterface(rs *ast.ReturnStmt, fd *ast.FuncDecl) {
	results := fd.Type.Results
	if results == nil || len(rs.Results) == 0 {
		return
	}
	// Walk the result fields in parallel with the returned expressions;
	// a bare `return` with named results has nothing to check.
	i := 0
	for _, field := range results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		ft := h.info.TypeOf(field.Type)
		for k := 0; k < n && i < len(rs.Results); k++ {
			if ft != nil && types.IsInterface(ft) && isCompositeLit(rs.Results[i]) {
				h.pass.Reportf(rs.Results[i].Pos(),
					"composite literal returned as interface %s escapes to the heap on a //detlint:hotpath function",
					types.TypeString(ft, types.RelativeTo(h.pass.Pkg.Types)))
			}
			i++
		}
	}
}

// checkAppendTarget classifies append's destination. Parameter-owned
// storage (the reusable-buffer idiom) and capacity-hinted locals are the
// two legal shapes; anything else grows an unsized heap slice in the hot
// path.
func (h *hotChecker) checkAppendTarget(call *ast.CallExpr) {
	if h.appendTargetOK(call.Args[0], 0) {
		return
	}
	h.pass.Reportf(call.Pos(),
		"append to non-parameter slice without a capacity hint on a //detlint:hotpath function (pass the buffer in, or make it with capacity)")
}

// appendTargetOK chases an append destination to its root: parameters,
// receivers and their fields are caller-owned; make(...) carries a
// capacity; slicing a fixed-size array is stack-bounded. Local variables
// are resolved through their initialiser, depth-limited so pathological
// chains terminate.
func (h *hotChecker) appendTargetOK(e ast.Expr, depth int) bool {
	if depth > 8 || e == nil {
		return false
	}
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := h.defOrUse(e)
		if obj == nil {
			return false
		}
		if h.params[obj] {
			return true
		}
		if init := h.lookupInit(obj); init != nil {
			return h.appendTargetOK(init, depth+1)
		}
		return false
	case *ast.SelectorExpr:
		// x.f: storage hanging off x — legal when x roots in a parameter
		// or receiver (sc.plan, s.Apps, h's backing array...).
		return h.rootIsParam(e.X, depth+1)
	case *ast.IndexExpr:
		return h.rootIsParam(e.X, depth+1)
	case *ast.StarExpr:
		return h.rootIsParam(e.X, depth+1)
	case *ast.SliceExpr:
		// y[:0] inherits y's storage; slicing an array is a capacity hint
		// in itself (the backing array is fixed-size, often stack).
		if t := h.info.TypeOf(e.X); t != nil {
			u := t.Underlying()
			if p, ok := u.(*types.Pointer); ok {
				u = p.Elem().Underlying()
			}
			if _, isArr := u.(*types.Array); isArr {
				return true
			}
		}
		return h.appendTargetOK(e.X, depth+1)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok {
			// make([]T, n, c): Args[0] is the type, so an explicit
			// capacity means three arguments.
			if isBuiltin(h.info, id, "make") && len(e.Args) >= 3 {
				return true
			}
			if isBuiltin(h.info, id, "append") && len(e.Args) > 0 {
				return h.appendTargetOK(e.Args[0], depth+1)
			}
		}
		return false
	default:
		return false
	}
}

// lookupInit finds obj's initialiser by locating its enclosing function
// body and scanning it.
func (h *hotChecker) lookupInit(obj types.Object) ast.Expr {
	for _, f := range h.pass.Pkg.Files {
		if f.Pos() <= obj.Pos() && obj.Pos() < f.End() {
			var body *ast.BlockStmt
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil &&
					fd.Body.Pos() <= obj.Pos() && obj.Pos() < fd.Body.End() {
					body = fd.Body
				}
				return true
			})
			if body != nil {
				return h.localInit(obj, body)
			}
		}
	}
	return nil
}

// rootIsParam chases a selector/index/deref chain to its base identifier
// and reports whether it is a parameter or receiver.
func (h *hotChecker) rootIsParam(e ast.Expr, depth int) bool {
	if depth > 8 || e == nil {
		return false
	}
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := h.defOrUse(e)
		if obj == nil {
			return false
		}
		if h.params[obj] {
			return true
		}
		if init := h.lookupInit(obj); init != nil {
			return h.rootIsParam(init, depth+1)
		}
		return false
	case *ast.SelectorExpr:
		return h.rootIsParam(e.X, depth+1)
	case *ast.IndexExpr:
		return h.rootIsParam(e.X, depth+1)
	case *ast.StarExpr:
		return h.rootIsParam(e.X, depth+1)
	case *ast.SliceExpr:
		return h.rootIsParam(e.X, depth+1)
	default:
		return false
	}
}
