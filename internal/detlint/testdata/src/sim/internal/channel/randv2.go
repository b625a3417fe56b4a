package channel

import randv2 "math/rand/v2"

// Fading owns a v2 generator.
type Fading struct {
	rng *randv2.Rand
}

// NewFading seeds an owned PCG source — the v2 constructors are flagged
// like v1's.
func NewFading(a, b uint64) *Fading {
	return &Fading{rng: randv2.New(randv2.NewPCG(a, b))} // want "globalrand: rand.New builds a math/rand generator" want "globalrand: rand.NewPCG builds a math/rand generator"
}

// BadV2 draws from math/rand/v2's global source.
func BadV2(n int) int {
	return randv2.IntN(n) // want "globalrand: rand.IntN draws from the process-global source"
}
