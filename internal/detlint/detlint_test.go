package detlint_test

import (
	"testing"

	"github.com/midband5g/midband/internal/detlint"
	"github.com/midband5g/midband/internal/detlint/dettest"
)

func TestGlobalRand(t *testing.T) {
	dettest.Run(t, "testdata", "sim/internal/channel", detlint.GlobalRand)
}

func TestWallTime(t *testing.T) {
	dettest.Run(t, "testdata", "sim/internal/gnb", detlint.WallTime)
}

func TestMapRange(t *testing.T) {
	dettest.Run(t, "testdata", "maprange", detlint.MapRange)
}

func TestObsWriteOnly(t *testing.T) {
	dettest.Run(t, "testdata", "sim/internal/ue", detlint.ObsWriteOnly)
}

// TestObsWriteOnlyOutsideSim checks the scoping: a non-sim package may
// read metric values (that is what reporting does).
func TestObsWriteOnlyOutsideSim(t *testing.T) {
	dettest.Run(t, "testdata", "tools/report", detlint.ObsWriteOnly)
}

func TestFloatCmp(t *testing.T) {
	dettest.Run(t, "testdata", "floatcmp", detlint.FloatCmp)
}

// TestAllowDirectives drives the directive parser end to end: a used
// directive suppresses (trailing or on the line above), several
// directives may share one comment, unknown names and missing reasons
// are reported, and a directive covering no diagnostic is stale.
func TestAllowDirectives(t *testing.T) {
	dettest.Run(t, "testdata", "allowfix", detlint.WallTime)
}

func TestUnitFlow(t *testing.T) {
	dettest.Run(t, "testdata", "unitflow", detlint.UnitFlow)
}

func TestAllocFree(t *testing.T) {
	dettest.Run(t, "testdata", "allocfree", detlint.AllocFree)
}

// TestBufOwn exercises the ownership facts end to end: package stepper
// exports the owned-method fact from its doc comment, and the consumer
// package is checked against it.
func TestBufOwn(t *testing.T) {
	dettest.Run(t, "testdata", "bufown/consumer", detlint.BufOwn)
}

// TestBufOwnDefiningPackage runs the analyzer over the package that
// exports the fact: reusing its own buffer is not retention.
func TestBufOwnDefiningPackage(t *testing.T) {
	dettest.Run(t, "testdata", "bufown/stepper", detlint.BufOwn)
}

func TestSeedFlow(t *testing.T) {
	dettest.Run(t, "testdata", "sim/internal/fault", detlint.SeedFlow)
}

// TestSeedFlowScopedToSimPackages checks that fixed seeds outside the
// simulation core are not flagged (tooling carries no determinism
// contract).
func TestSeedFlowScopedToSimPackages(t *testing.T) {
	dettest.Run(t, "testdata", "tools/shuffle", detlint.SeedFlow)
}

// TestFixtureCoverage asserts every analyzer in the suite has at least
// one caught and one allowed fixture, so an analyzer cannot land
// without tests for both sides of its contract.
func TestFixtureCoverage(t *testing.T) {
	inv, err := dettest.ScanFixtures("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range detlint.Suite() {
		if inv.Caught[a.Name] == 0 {
			t.Errorf("analyzer %s has no caught fixture (no want %q annotation)", a.Name, a.Name+": ...")
		}
		if inv.Allowed[a.Name] == 0 {
			t.Errorf("analyzer %s has no allowed fixture (no //detlint:allow %s directive)", a.Name, a.Name)
		}
	}
}

// TestGlobalRandScopedToSimPackages checks that the same global-rand
// pattern outside the simulation core is not flagged (CLI tooling may
// shuffle without a determinism contract).
func TestGlobalRandScopedToSimPackages(t *testing.T) {
	dettest.Run(t, "testdata", "tools/shuffle", detlint.GlobalRand)
}

func TestPolicy(t *testing.T) {
	for path, want := range map[string]bool{
		"github.com/midband5g/midband/internal/channel":                                                      true,
		"github.com/midband5g/midband/internal/gnb":                                                          true,
		"github.com/midband5g/midband/internal/core":                                                         true,
		"github.com/midband5g/midband/internal/obs":                                                          false,
		"github.com/midband5g/midband/internal/fleet":                                                        false,
		"github.com/midband5g/midband/internal/detlint":                                                      false,
		"github.com/midband5g/midband/cmd/campaign":                                                          false,
		"github.com/midband5g/midband/internal/channel [github.com/midband5g/midband/internal/channel.test]": true,
		"sim/internal/ue": true,
		"github.com/midband5g/midband/internal/simrand": true,
	} {
		if got := detlint.IsSimPackage(path); got != want {
			t.Errorf("IsSimPackage(%q) = %v, want %v", path, got, want)
		}
	}
	if !detlint.IsSimrandPackage("github.com/midband5g/midband/internal/simrand") || !detlint.IsSimrandPackage("sim/internal/simrand") {
		t.Error("internal/simrand not recognized as the generator package")
	}
	if detlint.IsSimrandPackage("github.com/midband5g/midband/internal/simrand/extra") || detlint.IsSimrandPackage("example.com/simrand") {
		t.Error("a package other than internal/simrand recognized as the generator package")
	}
	if !detlint.IsObsPackage("github.com/midband5g/midband/internal/obs") {
		t.Error("internal/obs not recognized as obs package")
	}
	if detlint.IsObsPackage("github.com/midband5g/midband/internal/core") {
		t.Error("internal/core wrongly recognized as obs package")
	}
}
