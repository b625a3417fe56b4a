package detlint

import "strings"

// simCore names the internal packages that form the deterministic
// simulation core: every byte they emit must be reproducible from the
// campaign seed alone. The scoped analyzers (globalrand, obswriteonly,
// seedflow) apply only here; the module-wide analyzers (walltime,
// maprange, floatcmp, unitflow) apply everywhere but tests, and the
// directive/fact-gated ones (allocfree, bufown) fire wherever a
// //detlint:zeroalloc annotation or an ownership fact reaches.
//
// fleet and obs are deliberately absent: fleet owns the wall-clock
// job timings and obs *is* the instrumentation layer, so both read the
// clock by design — their sites carry //detlint:allow walltime
// directives instead.
var simCore = map[string]bool{
	"channel":   true,
	"gnb":       true,
	"ue":        true,
	"lte":       true,
	"phy":       true,
	"tdd":       true,
	"net5g":     true,
	"core":      true,
	"video":     true,
	"iperf":     true,
	"transport": true,
	"fault":     true,
	"simrand":   true,
}

// internalSegments splits a package path at its "internal" element and
// returns the path segments below it, or nil when the path has no
// internal element. The go vet protocol reports test variants as
// "path [path.test]"; the bracket suffix is ignored.
func internalSegments(pkgPath string) []string {
	if i := strings.IndexByte(pkgPath, ' '); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	segs := strings.Split(pkgPath, "/")
	for i, s := range segs {
		if s == "internal" && i+1 < len(segs) {
			return segs[i+1:]
		}
	}
	return nil
}

// IsSimPackage reports whether pkgPath belongs to the deterministic
// simulation core (an internal/<pkg> subtree listed in simCore).
func IsSimPackage(pkgPath string) bool {
	segs := internalSegments(pkgPath)
	return len(segs) > 0 && simCore[segs[0]]
}

// IsSimrandPackage reports whether pkgPath is the simulator's random
// number generator package (internal/simrand).
func IsSimrandPackage(pkgPath string) bool {
	segs := internalSegments(pkgPath)
	return len(segs) == 1 && segs[0] == "simrand"
}

// IsObsPackage reports whether pkgPath is the observability layer
// (internal/obs or a subpackage of it).
func IsObsPackage(pkgPath string) bool {
	segs := internalSegments(pkgPath)
	return len(segs) > 0 && segs[0] == "obs"
}
