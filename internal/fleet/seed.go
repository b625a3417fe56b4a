package fleet

import "strconv"

// SplitSeed derives the seed for one component instance from a parent
// seed, a domain label and an instance index. It is the single
// documented spelling of seed splitting in this repository, replacing
// the ad-hoc `base + i*911 + 3`-style arithmetic that used to be
// scattered across gnb, operators and core: additive offsets collide
// (base+3 for one component equals base+1 of a sibling two seeds over)
// and correlate adjacent generators, while SplitSeed routes every
// derivation through one keyed splitmix64 mix, so
//
//   - distinct (domain, index) pairs land on well-separated seeds,
//   - the derivation depends only on (base, domain, index) — never on
//     worker identity, pool size or evaluation order, so a fleet job
//     produces the same random sequence with one worker or many, on any
//     platform, and
//   - a new component can claim a fresh domain string without auditing
//     every other component's offset constants.
//
// The key "domain#index" is hashed with FNV-1a (64-bit), mixed with the
// base seed via a golden-ratio multiply, and finalized with the
// splitmix64 mixer so that adjacent bases and near-identical keys still
// land on well-separated seeds.
//
// Conventional domains look like "gnb/channel" or an operator acronym;
// index distinguishes instances within the domain (UE number, session
// number, carrier index), with 0 for singletons.
func SplitSeed(base int64, domain string, index int) int64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	key := domain + "#" + strconv.Itoa(index)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	x := h ^ (uint64(base) * 0x9E3779B97F4A7C15)
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
