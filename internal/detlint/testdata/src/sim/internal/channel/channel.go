// Package channel is a globalrand fixture: the seeded simrand generator
// is allowed; math/rand's package-level draws are not, and neither are
// its constructors, whose streams simrand reproduces.
package channel

import (
	"math/rand"

	"sim/internal/simrand"
)

// Channel owns a math/rand generator, the idiom internal/channel used
// before internal/simrand.
type Channel struct {
	rng *rand.Rand
}

// New builds a channel with an owned, seeded math/rand generator. The
// constructors are flagged: the simulation core has one generator type.
func New(seed int64) *Channel {
	return &Channel{rng: rand.New(rand.NewSource(seed))} // want "globalrand: rand.New builds a math/rand generator.*use simrand.New" want "globalrand: rand.NewSource builds a math/rand generator.*use simrand.New"
}

// Step draws from the owned generator — a method, not a package-level
// draw, so only its construction is flagged.
func (c *Channel) Step() float64 {
	return c.rng.Float64()
}

// SimChannel owns a simrand generator, seeded from the config — the
// idiom the real internal/channel uses.
type SimChannel struct {
	rng *simrand.Rand
}

// NewSim builds a channel with an owned, seeded simrand generator —
// allowed.
func NewSim(seed int64) *SimChannel {
	return &SimChannel{rng: simrand.New(seed)}
}

// Step draws from the owned generator — allowed.
func (c *SimChannel) Step() float64 {
	return c.rng.Float64()
}

// Bad draws from and reseeds the process-global source.
func Bad(n int) int {
	rand.Seed(42)     // want "globalrand: rand.Seed reseeds the process-global source"
	x := rand.Intn(n) // want "globalrand: rand.Intn draws from the process-global source"
	return x
}

// AllowedWarmup draws from the global source behind a reviewed allow.
func AllowedWarmup(n int) int {
	return rand.Intn(n) //detlint:allow globalrand fixture: warmup outside the deterministic phase
}
