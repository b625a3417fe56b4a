// Package simrand is a miniature stand-in for the real internal/simrand
// so the globalrand and seedflow fixtures can build its generator.
package simrand

// Rand is a seeded generator.
type Rand struct{ seed int64 }

// New returns a generator seeded with seed.
func New(seed int64) *Rand { return &Rand{seed: seed} }

// Float64 returns a number in [0, 1).
func (r *Rand) Float64() float64 { return 0 }
