// Package deaduser imports the deadexport fixture from outside its
// internal/ tree's own package: a cross-package non-test use.
package deaduser

import (
	"fmt"

	"fixture/internal/dead"
)

// Sizer is a module-local interface whose method dead.Counter implements.
type Sizer interface{ Size() int }

// Total uses dead.Used across the package boundary.
func Total() int { return dead.Used() }

// Print needs fmt, whose Stringer interface dead.Counter implements.
func Print(s Sizer) { fmt.Println(s.Size()) }
