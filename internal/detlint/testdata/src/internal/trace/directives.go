// Package trace is a fixture for directive hygiene: malformed //detlint:
// comments are diagnostics themselves. (The package path ends in
// internal/trace, so it is also determinism-critical — irrelevant here,
// the directive analyzer runs everywhere.)
package trace

//detlint:frobnicate whatever
// want-1 `unknown detlint directive "frobnicate"`

//detlint:allow nosuchanalyzer because reasons
// want-1 `unknown analyzer "nosuchanalyzer" \(known: deadexport, directive, globalrand, hotalloc, rangemap, wallclock\)`

//detlint:allow wallclock
// want-1 `detlint:allow wallclock requires a reason`

//detlint:allow
// want-1 `detlint:allow requires an analyzer name and a reason`

// format formats a value; the directives above are free-floating comments
// so the file stays otherwise clean.
func format(v int) int { return v + 1 }
