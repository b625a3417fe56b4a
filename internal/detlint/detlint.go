// Package detlint statically enforces the simulator's determinism
// contract: byte-identical traces and aggregates for any worker count,
// with observability on or off (see docs/ARCHITECTURE.md, "Determinism
// rules"). The runtime tests (workers=1 vs 8, obs on vs off) catch a
// contract breach only when the breach happens to change the sampled
// outputs; these analyzers catch the *source* of a breach — a global
// RNG call, a wall-clock read, an unsorted map walk into a CSV — before
// it ever runs.
//
// Nine analyzers make up the suite:
//
//   - globalrand: simulation packages must not call math/rand's
//     package-level functions (or rand.Seed), nor build math/rand
//     generators; randomness flows through a seeded *simrand.Rand, as in
//     internal/channel.
//   - walltime: time.Now / time.Since are forbidden module-wide outside
//     tests; the few legitimate timing sites (obs, fleet, the CLIs,
//     core's metrics hooks) carry a //detlint:allow walltime directive.
//   - maprange: ranging over a map while writing to an io.Writer,
//     fmt.Fprint*, or appending into a slice that is never sorted is
//     flagged — map iteration order is random per process.
//   - obswriteonly: simulation packages may write metrics but never read
//     them back, so instrumentation cannot feed into results.
//   - floatcmp: == / != between floating-point operands outside _test.go
//     files is flagged; exact equality is representation-dependent.
//   - unitflow: a units-of-measure dataflow check seeded by the naming
//     convention (...dB, ...dBm, ...mW, ...Hz/kHz/MHz, ...Lin) and the
//     //detlint:unit <dim> directive; flags log/linear mixing, dBm↔dB
//     comparison and assignment, frequency-scale mismatches, and
//     double-applied 10^(x/10) conversions.
//   - allocfree: forbids allocation sources (make, map/slice literals,
//     closure captures, fmt, interface boxing, string conversion, append
//     to a non-reused slice) inside functions marked //detlint:zeroalloc
//     — the Step chains pinned by testing.AllocsPerRun.
//   - bufown: flags retention (field/global stores, channel sends,
//     goroutine captures) of results returned by methods documented
//     "owned ... until the next" call, using a small ownership fact
//     exported per package.
//   - seedflow: RNG constructions in simulation packages (simrand.New,
//     and math/rand's constructors) must derive their seed through
//     fleet.SplitSeed (or a config field/parameter) — no literal seeds
//     and no raw seed arithmetic.
//
// A site that is genuinely exempt carries a trailing
//
//	//detlint:allow <analyzer> <reason>
//
// comment on (or immediately above) the offending line. Directives with
// an unknown analyzer name or a missing reason are themselves
// diagnostics, and a directive that suppresses nothing is reported as
// stale, so the allowlist cannot rot.
//
// The suite runs in CI as a go vet tool: cmd/detlint speaks the vet
// unit-checker protocol, so `go vet -vettool=$(which detlint) ./...`
// checks every package in the module.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static rule of the determinism contract. It is a
// deliberately small mirror of golang.org/x/tools/go/analysis.Analyzer:
// the repository vendors no third-party modules, so the suite and its
// driver are built on go/ast and go/types alone.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //detlint:allow directives.
	Name string
	// Doc is a one-line description of the enforced rule.
	Doc string
	// Run inspects one type-checked package and reports violations
	// through pass.Report.
	Run func(*Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	// Analyzer is the rule being applied.
	Analyzer *Analyzer
	// Fset maps token positions to file/line.
	Fset *token.FileSet
	// Files are the package's syntax trees. Test files (_test.go) are
	// already filtered out by the driver.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
	// DepFacts maps dependency package paths to the facts they export
	// (see Facts). Nil when the driver carries no facts; analyzers that
	// consume facts must then fall back to intra-package information.
	DepFacts map[string]*Facts
	// Report records a diagnostic at pos.
	Report func(pos token.Pos, message string)
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Pos locates the violation.
	Pos token.Pos
	// Analyzer names the rule that fired ("allow" for directive
	// problems and stale-directive reports).
	Analyzer string
	// Message explains the violation.
	Message string
}

// Suite returns the nine determinism analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		GlobalRand,
		WallTime,
		MapRange,
		ObsWriteOnly,
		FloatCmp,
		UnitFlow,
		AllocFree,
		BufOwn,
		SeedFlow,
	}
}

// KnownAnalyzers returns the set of analyzer names valid in a
// //detlint:allow directive.
func KnownAnalyzers() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Suite() {
		m[a.Name] = true
	}
	return m
}

// pkgPathOf resolves the selector's receiver to an imported package
// path, or "" when x does not name an imported package.
func pkgPathOf(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
