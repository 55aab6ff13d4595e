// Package dead is a fixture for deadexport: its path is under internal/,
// so every exported function or method here needs a use in some loaded
// non-test file. Package deaduser is the only importer.
package dead

// Unused has no caller anywhere: flagged.
func Unused() int { return 1 } // want `exported Unused has no use in non-test code`

// Used is called from package deaduser: clean.
func Used() int { return usedHere() + Helper() }

// Helper is used inside its own package: a use is a use, clean.
func Helper() int { return 2 }

func usedHere() int { return 3 }

// Counter carries methods on both sides of the rule.
type Counter struct{ n int }

// Reset has no caller and matches no interface: flagged.
func (c *Counter) Reset() { c.n = 0 } // want `exported Counter\.Reset has no use in non-test code`

// String implements fmt.Stringer, so fmt may call it without naming it:
// clean.
func (c Counter) String() string { return "counter" }

// Size implements deaduser.Sizer, a module-local interface: clean.
func (c *Counter) Size() int { return c.n }

// Kept carries a reasoned exemption.
//
//detlint:allow deadexport fixture exercises the suppression path
func Kept() {}
