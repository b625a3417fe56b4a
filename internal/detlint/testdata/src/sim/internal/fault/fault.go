// Package fault is a seedflow fixture: RNG constructions in the
// simulation core — simrand.New, and math/rand's constructors — must
// derive their seed through fleet.SplitSeed (or receive one already
// derived via a field or parameter); literal seeds and hand-rolled
// arithmetic are flagged.
package fault

import (
	"math/rand"

	"sim/internal/fleet"
	"sim/internal/simrand"
)

// Config carries the campaign seed.
type Config struct{ Seed int64 }

// Good derives the stream seed through SplitSeed at the call site.
func Good(cfg Config, attempt int) *rand.Rand {
	return rand.New(rand.NewSource(fleet.SplitSeed(cfg.Seed, "fault/session", attempt)))
}

// GoodVia routes the derived seed through a local.
func GoodVia(cfg Config, attempt int) *rand.Rand {
	base := fleet.SplitSeed(cfg.Seed, "fault/retry", attempt)
	return rand.New(rand.NewSource(base))
}

// GoodField trusts a config field: the campaign already derived it.
func GoodField(cfg Config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed))
}

// GoodParam trusts a parameter for the same reason.
func GoodParam(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// BadLiteral seeds with a constant: every fleet worker gets the same
// stream.
func BadLiteral() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want "seedflow: rand.NewSource seed is a constant"
}

// BadArith hand-rolls sibling derivation; adjacent indices produce
// correlated streams.
func BadArith(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(i))) // want "seedflow: rand.NewSource seed is derived with raw \+ arithmetic"
}

// BadXor mixes with xor instead of a full-avalanche split.
func BadXor(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x9e3779b9)) // want "seedflow: .*raw \^ arithmetic"
}

// BadVia traces a local back to raw arithmetic.
func BadVia(seed int64) *rand.Rand {
	derived := seed * 31
	return rand.New(rand.NewSource(derived)) // want "seedflow: .*via derived.*raw \* arithmetic"
}

// BadReseed reseeds an owned generator in place with a literal.
func BadReseed(r *rand.Rand) {
	r.Seed(7) // want "seedflow: rand.Seed seed is a constant"
}

// AllowedFixed keeps a fixed conformance probe stream behind a
// reviewed allow.
func AllowedFixed() *rand.Rand {
	return rand.New(rand.NewSource(1)) //detlint:allow seedflow fixture: fixed conformance probe stream
}

// GoodStaleAllow is covered by a directive that suppresses nothing.
func GoodStaleAllow(seed int64) *rand.Rand {
	// want "stale //detlint:allow seedflow"
	//detlint:allow seedflow seeds here are already derived
	return rand.New(rand.NewSource(seed))
}

// GoodSim derives a simrand seed through SplitSeed at the call site.
func GoodSim(cfg Config, attempt int) *simrand.Rand {
	return simrand.New(fleet.SplitSeed(cfg.Seed, "fault/session", attempt))
}

// GoodSimVia routes the derived seed through a local.
func GoodSimVia(cfg Config, i int) *simrand.Rand {
	base := fleet.SplitSeed(cfg.Seed, "fault/ue", i)
	return simrand.New(base)
}

// GoodSimField trusts a config field: the campaign already derived it.
func GoodSimField(cfg Config) *simrand.Rand {
	return simrand.New(cfg.Seed)
}

// BadSimLiteral seeds simrand with a constant.
func BadSimLiteral() *simrand.Rand {
	return simrand.New(42) // want "seedflow: simrand.New seed is a constant"
}

// BadSimArith hand-rolls sibling derivation for simrand.
func BadSimArith(seed int64, i int) *simrand.Rand {
	return simrand.New(seed + int64(i)) // want "seedflow: simrand.New seed is derived with raw \+ arithmetic"
}

// BadSimVia traces a local back to raw arithmetic.
func BadSimVia(seed int64) *simrand.Rand {
	derived := seed << 3
	return simrand.New(derived) // want "seedflow: simrand.New seed \(via derived\) is derived with raw << arithmetic"
}

// AllowedSimFixed keeps a fixed probe stream behind a reviewed allow.
func AllowedSimFixed() *simrand.Rand {
	return simrand.New(1) //detlint:allow seedflow fixture: fixed conformance probe stream
}
