// rand.go exercises globalrand's import rule: a determinism-critical
// package may not import either math/rand, even to build a seeded
// generator, since its randomness comes from internal/rng.
package sim

import (
	"math/rand"       // want `math/rand imported in determinism-critical package`
	v2 "math/rand/v2" // want `math/rand/v2 imported in determinism-critical package`
)

// seededDraws builds explicitly seeded generators: clean outside a
// critical package (see randuser), flagged here only at the imports.
func seededDraws() (int, int) {
	return rand.New(rand.NewSource(1)).Intn(10), v2.New(v2.NewPCG(1, 2)).IntN(10)
}
