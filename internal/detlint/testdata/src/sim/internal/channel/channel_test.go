package channel

import "math/rand"

// referenceStep lives in a _test.go file, where a math/rand generator is
// the oracle simrand is checked against — never flagged.
func referenceStep(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}
