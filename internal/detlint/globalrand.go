package detlint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// GlobalRand forbids math/rand inside the simulation core, except for
// its types. The package-level draw functions (and rand.Seed) draw from
// a process-global source that is shared across goroutines, so
// concurrent fleet jobs would interleave draws and the sequence would
// depend on worker count and scheduling — exactly the nondeterminism the
// contract rules out. The constructors build a generator of a second
// type: internal/simrand reproduces rand.New(rand.NewSource(seed))'s
// streams draw for draw without the interface calls, so the core has one
// generator type. Randomness must flow through a seeded *simrand.Rand
// owned by the component, as internal/channel does:
//
//	rng: simrand.New(cfg.Seed)
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid math/rand functions and constructors in simulation packages; use a seeded *simrand.Rand",
	Run:  runGlobalRand,
}

// randConstructors are the math/rand and math/rand/v2 functions that
// build an owned generator or source rather than drawing from the
// global one. Everything else at package level is a global draw.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runGlobalRand(pass *Pass) {
	if !IsSimPackage(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path := pkgPathOf(pass.Info, sel.X)
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if _, isFunc := pass.Info.Uses[sel.Sel].(*types.Func); !isFunc {
				return true // type names like rand.Rand, rand.Source
			}
			name := sel.Sel.Name
			if randConstructors[name] {
				pass.Report(sel.Pos(), fmt.Sprintf(
					"globalrand: rand.%s builds a math/rand generator in the simulation core; use simrand.New(seed), which reproduces rand.New(rand.NewSource(seed)) draw for draw",
					name))
				return true
			}
			verb := "draws from the process-global source"
			if name == "Seed" {
				verb = "reseeds the process-global source"
			}
			pass.Report(sel.Pos(), fmt.Sprintf(
				"globalrand: rand.%s %s, which is shared across fleet workers; use a seeded *simrand.Rand (simrand.New(seed))",
				name, verb))
			return true
		})
	}
}
