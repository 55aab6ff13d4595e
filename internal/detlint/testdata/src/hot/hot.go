// Package hot is a fixture for hotalloc: allocation constructs are only
// flagged inside functions whose doc comment carries //detlint:hotpath.
package hot

import "fmt"

type ring struct {
	buf []int
}

// Unmarked does everything hotalloc hates, but carries no hotpath
// directive: clean.
func Unmarked(parts []string) string {
	s := fmt.Sprintf("%d parts", len(parts))
	for _, p := range parts {
		s = s + "," + p
	}
	return s
}

// FmtOnHot formats on a hot free function.
//
//detlint:hotpath
func FmtOnHot(n int) string {
	return fmt.Sprintf("n=%d", n) // want `fmt\.Sprintf allocates on a //detlint:hotpath function`
}

// ErrOnHot builds an error on a hot function.
//
//detlint:hotpath
func ErrOnHot(n int) error {
	if n < 0 {
		return fmt.Errorf("negative: %d", n) // want `fmt\.Errorf allocates`
	}
	return nil
}

// ConcatOnHot concatenates non-constant strings on a hot METHOD — the
// directive must work on methods exactly as on free functions.
//
//detlint:hotpath
func (r *ring) ConcatOnHot(a, b string) string {
	return a + b // want `string concatenation allocates`
}

// ConstConcat folds at compile time: clean even on a hot path.
//
//detlint:hotpath
func ConstConcat() string {
	return "a" + "b" + "c"
}

// IfaceEscape passes a composite literal through an interface.
//
//detlint:hotpath
func IfaceEscape(sink func(any)) {
	sink([2]int{1, 2}) // want `composite literal .* escapes to the heap`
}

// GrowLocal appends to a local slice with no capacity hint.
//
//detlint:hotpath
func GrowLocal(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x*2) // want `append to non-parameter slice without a capacity hint`
	}
	return out
}

// GrowParam appends into a caller-supplied buffer: clean — the caller
// owns the allocation.
//
//detlint:hotpath
func GrowParam(dst, xs []int) []int {
	for _, x := range xs {
		dst = append(dst, x*2)
	}
	return dst
}

// GrowReceiver appends to receiver-owned storage: clean.
//
//detlint:hotpath
func (r *ring) GrowReceiver(x int) {
	r.buf = append(r.buf, x)
}

// GrowHinted makes the local with explicit capacity: clean.
//
//detlint:hotpath
func GrowHinted(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x*2)
	}
	return out
}

// GrowArrayBacked slices a local array: clean — the backing store is on
// the stack.
//
//detlint:hotpath
func GrowArrayBacked(xs []int) []int {
	var arr [8]int
	out := arr[:0]
	for _, x := range xs {
		if len(out) == cap(out) {
			break
		}
		out = append(out, x)
	}
	return out
}

// AllowedAlloc carries a reasoned exemption for a cold branch.
//
//detlint:hotpath
func AllowedAlloc(n int) error {
	if n < 0 {
		//detlint:allow hotalloc one-time validation; never hit in steady state
		return fmt.Errorf("negative: %d", n)
	}
	return nil
}

// BoxOnHot hands operands to a ...any logger: the non-constant,
// non-pointer ones are boxed on the heap at the call, one report per call.
//
//detlint:hotpath
func BoxOnHot(logf func(string, ...any), n int, name string, r *ring, err error) {
	logf("n=%d name=%s", n, // want `2 operand\(s\) boxed into \.\.\.any allocate on a //detlint:hotpath function`
		name)
	logf("const %d %s", 1, "x")   // constants are boxed statically: clean
	logf("%p %v %v", r, err, nil) // pointer-shaped operands: clean
	args := make([]any, 0, 2)     // a spread slice boxes nothing at the call
	logf("%v", args...)           // clean
	logf("no operands")           // clean
	if logf != nil {
		//detlint:allow hotalloc formatting runs only when a logger is set
		logf("n=%d", n)
	}
}
